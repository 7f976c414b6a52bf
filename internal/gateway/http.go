package gateway

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"ecstore/internal/erasure"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
)

// TenantHeader names the HTTP header carrying the tenant identity.
// Requests without it run as the "default" tenant.
const TenantHeader = "X-EC-Tenant"

const blocksPrefix = "/v1/blocks/"

// NewHTTPHandler serves the gateway's HTTP front:
//
//	PUT    /v1/blocks/<key>              store a block (streamed body)
//	GET    /v1/blocks/<key>[?off=&len=]  fetch a block or a byte range
//	DELETE /v1/blocks/<key>              delete a block
//	GET    /healthz                      liveness probe
//	GET    /metrics, /traces             obs dump (when reg is non-nil)
//
// Admission rejections map onto backpressure statuses a client can act
// on: 429 + Retry-After for rate-limit and queue sheds, 403 for a spent
// quota or an unknown tenant — never a hung connection.
func NewHTTPHandler(g *Gateway, reg *obs.Registry, tracer *obs.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if reg != nil {
		mux.Handle("/metrics", obs.Handler(reg, tracer))
		mux.Handle("/traces", obs.Handler(reg, tracer))
	}
	mux.HandleFunc(blocksPrefix, func(w http.ResponseWriter, r *http.Request) {
		serveBlock(g, w, r)
	})
	return mux
}

func serveBlock(g *Gateway, w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, blocksPrefix)
	if key == "" || strings.Contains(key, "/") {
		http.Error(w, "gateway: want /v1/blocks/<key>", http.StatusBadRequest)
		return
	}
	tenantName := r.Header.Get(TenantHeader)
	if tenantName == "" {
		tenantName = "default"
	}
	ctx := r.Context()
	id := model.BlockID(key)

	switch r.Method {
	case http.MethodPut, http.MethodPost:
		n, err := g.PutReader(ctx, tenantName, id, r.Body)
		if err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, "stored %d bytes\n", n)

	case http.MethodGet:
		data, err := getMaybeRange(g, r, tenantName, id)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)

	case http.MethodDelete:
		if err := g.Delete(ctx, tenantName, id); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)

	default:
		http.Error(w, "gateway: method not allowed", http.StatusMethodNotAllowed)
	}
}

func getMaybeRange(g *Gateway, r *http.Request, tenantName string, id model.BlockID) ([]byte, error) {
	q := r.URL.Query()
	offS, lenS := q.Get("off"), q.Get("len")
	if offS == "" && lenS == "" {
		return g.Get(r.Context(), tenantName, id)
	}
	off, err := strconv.ParseInt(offS, 10, 64)
	if err != nil && offS != "" {
		return nil, errBadRequest{fmt.Errorf("gateway: bad off: %w", err)}
	}
	n, err := strconv.ParseInt(lenS, 10, 64)
	if err != nil {
		return nil, errBadRequest{fmt.Errorf("gateway: bad len: %w", err)}
	}
	return g.GetRange(r.Context(), tenantName, id, off, n)
}

// errBadRequest marks a client-side parameter error for status mapping.
type errBadRequest struct{ err error }

func (e errBadRequest) Error() string { return e.err.Error() }
func (e errBadRequest) Unwrap() error { return e.err }

// isNotFound matches metadata.ErrNotFound both in-process and across
// the RPC boundary, where the sentinel arrives flattened into a
// *rpc.RemoteError message.
func isNotFound(err error) bool {
	return errors.Is(err, metadata.ErrNotFound) ||
		strings.Contains(err.Error(), metadata.ErrNotFound.Error())
}

func writeError(w http.ResponseWriter, err error) {
	var bad errBadRequest
	switch {
	case errors.Is(err, ErrRateLimited), errors.Is(err, ErrOverloaded):
		// 429 with Retry-After is the shed contract: the client backs
		// off instead of piling onto the queue.
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrQuotaExhausted), errors.Is(err, ErrUnknownTenant):
		http.Error(w, err.Error(), http.StatusForbidden)
	case errors.As(err, &bad):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case isNotFound(err):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, erasure.ErrRangeOutOfBounds):
		http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
	default:
		http.Error(w, err.Error(), http.StatusBadGateway)
	}
}

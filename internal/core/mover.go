package core

import (
	"errors"
	"fmt"
	"sync"

	"ecstore/internal/health"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/placement"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
	"ecstore/internal/tasks"
)

// ErrStalePlan reports that a movement plan no longer applies: the chunk
// moved, the block was deleted, or the destination stopped being eligible
// after the plan was selected. The move executor treats it as success —
// there is nothing left to move.
var ErrStalePlan = errors.New("core: movement plan is stale")

// MoverRunnerConfig tunes the background chunk mover (Section V-B2).
type MoverRunnerConfig struct {
	// Mover parameterizes the movement strategy itself.
	Mover placement.MoverConfig
	// RequestRate is the observed client request rate fed to load-shift
	// estimation; zero means 100 req/s.
	RequestRate float64
	// DefaultO and DefaultM seed the cost model.
	DefaultO float64
	DefaultM float64
	// Metrics optionally exports move counters into a shared registry.
	// Nil disables it.
	Metrics *obs.Registry
}

// MoverRunner is the background chunk mover: it asks the placement.Mover
// for the highest-scoring movement plan, then executes it with the shared
// engine's fetch -> commit -> delete-source steps so concurrent readers
// never lose access to a chunk mid-move. It owns no goroutine — the
// unified scheduler in internal/tasks drives planning as a periodic
// source and executes each plan as a move-priority task (see
// taskplane.go).
type MoverRunner struct {
	cfg    MoverRunnerConfig
	ops    *relocator
	mover  *placement.Mover
	co     *stats.CoAccessTracker
	loads  *stats.LoadTracker
	probes *stats.ProbeEstimator

	movesC     *obs.Counter
	moveFailsC *obs.Counter

	mu     sync.Mutex
	moved  int64
	failed int64
}

// NewMoverRunner wires a runner. All dependencies are required.
func NewMoverRunner(cfg MoverRunnerConfig, meta metadata.Service, sites map[model.SiteID]storage.SiteAPI,
	tracker *health.Tracker, co *stats.CoAccessTracker, loads *stats.LoadTracker, probes *stats.ProbeEstimator) *MoverRunner {
	if cfg.RequestRate == 0 {
		cfg.RequestRate = 100
	}
	if cfg.DefaultO == 0 {
		cfg.DefaultO = 5
	}
	if cfg.DefaultM == 0 {
		cfg.DefaultM = 1.0 / (100 * 1024)
	}
	r := &MoverRunner{
		cfg:    cfg,
		ops:    newRelocator(meta, sites, loads, tracker),
		mover:  placement.NewMover(cfg.Mover),
		co:     co,
		loads:  loads,
		probes: probes,
	}
	if cfg.Metrics != nil {
		r.movesC = cfg.Metrics.Counter("mover_moves_total", "chunk movements committed")
		r.moveFailsC = cfg.Metrics.Counter("mover_move_failures_total", "chunk movements that failed or lost a CAS race")
	}
	return r
}

// Moves returns (successful, failed) movement counts.
func (r *MoverRunner) Moves() (int64, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.moved, r.failed
}

// SelectPlan asks the placement mover for the current highest-scoring
// movement plan without executing it. The task plane's move-planning
// source uses it to turn plans into durable move tasks. Destinations
// pass the shared eligibility rule under the current zone, drain and
// breaker view.
func (r *MoverRunner) SelectPlan() (model.MovePlan, bool) {
	return r.mover.SelectMovementPlan(placement.MoverEnv{
		Catalog:     catalogAdapter{meta: r.ops.meta},
		CoAccess:    r.co,
		Loads:       r.loads,
		Costs:       r.probes.Costs(r.cfg.DefaultO, r.cfg.DefaultM),
		RequestRate: r.cfg.RequestRate,
		Available:   r.ops.health.Available,
		Infos:       r.ops.meta.SiteInfos(),
	})
}

// Run executes one move task and records the outcome in the move
// counters. A stale plan is a finished task.
//
//lint:ignore ctxfirst tasks.Ctx embeds the task's context.Context
func (r *MoverRunner) Run(tc *tasks.Ctx) error {
	rec := tc.Record()
	err := r.Execute(tc, model.MovePlan{Block: rec.Block, Chunk: rec.Chunk, From: rec.Site, To: rec.Dest})
	r.mu.Lock()
	if err != nil {
		r.failed++
	} else {
		r.moved++
	}
	r.mu.Unlock()
	if err == nil {
		r.movesC.Inc()
		return nil
	}
	r.moveFailsC.Inc()
	if errors.Is(err, ErrStalePlan) {
		return nil
	}
	return err
}

// Execute relocates one planned chunk. The plan was scored against an
// earlier catalog state, so it is re-validated first: the chunk must
// still sit on plan.From and plan.To must still be eligible for it (a
// repair or drain may since have put another chunk of the block there or
// in its zone).
//
//lint:ignore ctxfirst taskCtx embeds the task's context.Context
func (r *MoverRunner) Execute(tc taskCtx, plan model.MovePlan) error {
	meta, err := r.ops.lookup(plan.Block)
	if err != nil {
		return err
	}
	if meta == nil || plan.Chunk < 0 || plan.Chunk >= len(meta.Sites) || meta.Sites[plan.Chunk] != plan.From {
		return fmt.Errorf("%w for %s", ErrStalePlan, plan.Block)
	}
	if rule := r.ops.rule(meta, plan.Chunk); !rule.Allows(plan.To) || !rule.UnderCap(plan.To) {
		return fmt.Errorf("%w for %s: site %d is no longer an eligible destination", ErrStalePlan, plan.Block, plan.To)
	}
	_, err = r.ops.relocate(tc, meta, plan.Chunk, plan.To)
	return err
}

// catalogAdapter exposes a metadata.Service as a placement.CatalogView.
type catalogAdapter struct {
	meta metadata.Service
}

var _ placement.CatalogView = catalogAdapter{}

func (a catalogAdapter) BlockMeta(id model.BlockID) (*model.BlockMeta, bool) {
	metas, err := a.meta.Lookup([]model.BlockID{id})
	if err != nil {
		return nil, false
	}
	return metas[id], true
}

func (a catalogAdapter) Sites() []model.SiteID { return a.meta.Sites() }

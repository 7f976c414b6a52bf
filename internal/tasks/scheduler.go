// Package tasks is EC-Store's unified background task scheduler: one
// throttled execution plane for everything that competes with foreground
// reads for site I/O — repair, chunk movement, scrubbing, drains. It
// replaces the bespoke repair and mover loops (ROADMAP item 5) with a
// single priority queue the control plane and CLIs share.
//
// Design:
//
//   - Tasks are model.TaskRecord rows persisted in the metadata catalog
//     (the Store interface). The scheduler owns no private queue state
//     that matters across a crash: a restart re-reads the store, flips
//     Running rows back to Pending (every task type is re-entrant from
//     its Cursor), and continues. Done rows stay Done — a completed task
//     never runs twice after resume.
//
//   - Admission is by priority (higher first), then FIFO by creation
//     time, then ID, under two caps: GlobalSlots concurrent tasks and
//     SiteSlots per site, so one site's repair storm cannot monopolize
//     the plane and a scrub cannot double-book a site being drained.
//
//   - Byte throttling is a shared token bucket: executors call
//     Ctx.Throttle(bytes) before chunk-sized I/O, which spreads
//     background bytes over time instead of bursting them into the
//     foreground tail (the joint-scheduling lesson from Xiang et al.).
//
//   - Time is injected. The package never reads the wall clock or the
//     global rand source (enforced by internal/lint's determinism rule),
//     so the scheduler runs byte-identically under internal/sim virtual
//     time and the chaos harness.
//
// Periodic work (repair probe sweeps, mover planning rounds, scrub
// scheduling) enters through sources: named closures run at a fixed
// cadence at the top of each pass, enqueueing whatever tasks they find
// due. Source-enqueued IDs are stable, and Enqueue deduplicates against
// live rows, so a sweep that fires twice enqueues once.
package tasks

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/obs"
)

// Store is the durable task table the scheduler coordinates through —
// implemented by metadata.Service (catalog or RPC client).
type Store interface {
	PutTask(t *model.TaskRecord) error
	ListTasks() []*model.TaskRecord
	DeleteTask(id string) error
}

// Ctx is the execution context handed to task executors: the caller's
// context plus the scheduler's throttle and cursor-persistence hooks.
type Ctx struct {
	context.Context
	s   *Scheduler
	rec *model.TaskRecord
}

// Record returns the task being executed. Executors may read payload
// fields and Cursor; mutations beyond SaveCursor are not persisted.
func (c *Ctx) Record() *model.TaskRecord { return c.rec }

// SaveCursor persists resumable progress: a task killed after SaveCursor
// restarts from that cursor, not from scratch.
func (c *Ctx) SaveCursor(cursor string) error {
	c.rec.Cursor = cursor
	c.rec.UpdatedNanos = c.s.clock().UnixNano()
	return c.s.cfg.Store.PutTask(c.rec)
}

// Throttle blocks until the scheduler's byte budget admits n more
// background bytes, honoring the context. A zero-rate scheduler admits
// immediately.
func (c *Ctx) Throttle(n int64) error {
	return c.s.throttle(c.Context, n)
}

// Func executes one task. A nil return marks the task Done; an error
// requeues it (up to Config.RetryLimit attempts) and then marks it
// Failed. Executors must honor ctx cancellation and be re-entrant from
// their record's Cursor.
type Func func(c *Ctx) error

// Config tunes a Scheduler.
type Config struct {
	// Store persists task state; required.
	Store Store
	// Clock abstracts time; nil uses the wall clock. Under internal/sim
	// this is the engine's virtual clock.
	Clock func() time.Time
	// Sleep abstracts throttle waits; nil uses a context-aware timer.
	// Under internal/sim this advances virtual time.
	Sleep func(time.Duration)
	// GlobalSlots caps concurrently running tasks (default 4).
	GlobalSlots int
	// SiteSlots caps concurrently running tasks per site (default 1).
	SiteSlots int
	// BytesPerSec is the shared background byte budget executors draw
	// from via Ctx.Throttle; 0 disables throttling.
	BytesPerSec int64
	// RetryLimit is the maximum executions per task before it is marked
	// Failed (default 3).
	RetryLimit int
	// Interval is the background loop cadence for Start (default 1s).
	Interval time.Duration
	// Metrics optionally exports task_* instrumentation.
	Metrics *obs.Registry
}

// schedMetrics is the scheduler's instrument set; nil-safe when disabled.
type schedMetrics struct {
	enqueued  *obs.CounterVec
	started   *obs.CounterVec
	completed *obs.CounterVec
	failed    *obs.CounterVec
	retries   *obs.CounterVec
	pending   *obs.Gauge
	running   *obs.Gauge
	throttled *obs.Counter
}

func newSchedMetrics(reg *obs.Registry) schedMetrics {
	if reg == nil {
		return schedMetrics{}
	}
	return schedMetrics{
		enqueued:  reg.CounterVec("task_enqueued_total", "type", "background tasks enqueued"),
		started:   reg.CounterVec("task_started_total", "type", "background task executions started"),
		completed: reg.CounterVec("task_completed_total", "type", "background tasks completed"),
		failed:    reg.CounterVec("task_failed_total", "type", "background tasks failed permanently (retries exhausted)"),
		retries:   reg.CounterVec("task_retries_total", "type", "background task executions requeued after an error"),
		pending:   reg.Gauge("task_pending", "background tasks waiting to run"),
		running:   reg.Gauge("task_running", "background tasks currently executing"),
		throttled: reg.Counter("task_throttled_bytes_total", "background bytes admitted through the task throttle"),
	}
}

// Scheduler runs background tasks from a shared durable queue.
type Scheduler struct {
	cfg   Config
	execs map[string]Func
	obs   schedMetrics

	thrMu     sync.Mutex
	thrTokens float64
	thrLast   time.Time

	mu      sync.Mutex
	sources []*source
	synced  bool
	started bool
	stop    chan struct{}
	done    chan struct{}
}

type source struct {
	name   string
	every  time.Duration
	fn     func(ctx context.Context)
	nextAt time.Time
}

// New builds a scheduler. Register executors and sources before the
// first RunOnce/Start.
func New(cfg Config) *Scheduler {
	if cfg.Store == nil {
		panic("tasks: Config.Store is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.GlobalSlots <= 0 {
		cfg.GlobalSlots = 4
	}
	if cfg.SiteSlots <= 0 {
		cfg.SiteSlots = 1
	}
	if cfg.RetryLimit <= 0 {
		cfg.RetryLimit = 3
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	s := &Scheduler{
		cfg:   cfg,
		execs: make(map[string]Func),
		obs:   newSchedMetrics(cfg.Metrics),
	}
	s.thrLast = cfg.Clock()
	return s
}

func (s *Scheduler) clock() time.Time { return s.cfg.Clock() }

// Register binds an executor to a task type. Not safe to call after
// Start; typical wiring registers everything up front.
func (s *Scheduler) Register(taskType string, fn Func) {
	s.execs[taskType] = fn
}

// AddSource installs a periodic task generator: fn runs at the top of a
// pass whenever at least `every` has elapsed since its previous run (and
// on the very first pass). Sources enqueue tasks; they do not execute
// work themselves.
func (s *Scheduler) AddSource(name string, every time.Duration, fn func(ctx context.Context)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sources = append(s.sources, &source{name: name, every: every, fn: fn})
}

// Enqueue adds a task to the durable queue. Records with an ID already
// pending or running are dropped (idempotent sources); IDs whose
// previous incarnation is Done or Failed are replaced by the fresh task.
// It returns whether the task was actually enqueued.
func (s *Scheduler) Enqueue(rec *model.TaskRecord) (bool, error) {
	if rec == nil || rec.ID == "" || rec.Type == "" {
		return false, fmt.Errorf("tasks: invalid record %+v", rec)
	}
	for _, t := range s.cfg.Store.ListTasks() {
		if t.ID == rec.ID && (t.State == model.TaskPending || t.State == model.TaskRunning) {
			return false, nil
		}
	}
	cp := rec.Clone()
	cp.State = model.TaskPending
	cp.Attempts = 0
	now := s.clock().UnixNano()
	if cp.CreatedNanos == 0 {
		cp.CreatedNanos = now
	}
	cp.UpdatedNanos = now
	if err := s.cfg.Store.PutTask(cp); err != nil {
		return false, err
	}
	s.obs.enqueued.With(cp.Type).Inc()
	return true, nil
}

// resync flips Running rows back to Pending once per scheduler lifetime:
// a Running row at startup means the previous process died mid-task.
func (s *Scheduler) resync() {
	s.mu.Lock()
	if s.synced {
		s.mu.Unlock()
		return
	}
	s.synced = true
	s.mu.Unlock()
	for _, t := range s.cfg.Store.ListTasks() {
		if t.State == model.TaskRunning {
			t.State = model.TaskPending
			t.UpdatedNanos = s.clock().UnixNano()
			_ = s.cfg.Store.PutTask(t)
		}
	}
}

// runSources fires every due source.
func (s *Scheduler) runSources(ctx context.Context) {
	now := s.clock()
	s.mu.Lock()
	due := make([]*source, 0, len(s.sources))
	for _, src := range s.sources {
		if !src.nextAt.After(now) {
			src.nextAt = now.Add(src.every)
			due = append(due, src)
		}
	}
	s.mu.Unlock()
	for _, src := range due {
		src.fn(ctx)
	}
}

// admissible returns the pending tasks eligible to start, in admission
// order, excluding IDs in skip (already executed this pass).
func (s *Scheduler) admissible(skip map[string]bool) []*model.TaskRecord {
	var pending []*model.TaskRecord
	for _, t := range s.cfg.Store.ListTasks() {
		if t.State != model.TaskPending || skip[t.ID] {
			continue
		}
		if _, ok := s.execs[t.Type]; !ok {
			continue
		}
		pending = append(pending, t)
	}
	sort.Slice(pending, func(i, j int) bool {
		a, b := pending[i], pending[j]
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		if a.CreatedNanos != b.CreatedNanos {
			return a.CreatedNanos < b.CreatedNanos
		}
		return a.ID < b.ID
	})
	return pending
}

// RunOnce executes one scheduler pass: resume-sync on the first call,
// then due sources, then batches of admissible tasks until the queue has
// nothing startable left. It blocks until every task it started has
// finished, so a caller driving passes manually (Cluster.Tick, the sim,
// tests) observes a quiescent queue between passes.
func (s *Scheduler) RunOnce(ctx context.Context) {
	s.resync()
	s.runSources(ctx)

	ran := make(map[string]bool)
	for {
		batch := s.pickBatch(s.admissible(ran))
		if len(batch) == 0 {
			break
		}
		var wg sync.WaitGroup
		for _, t := range batch {
			ran[t.ID] = true
			wg.Add(1)
			go func(t *model.TaskRecord) {
				defer wg.Done()
				s.execute(ctx, t)
			}(t)
		}
		wg.Wait()
		if ctx.Err() != nil {
			break
		}
	}
	s.updateGauges()
}

// pickBatch applies the global and per-site concurrency caps to an
// admission-ordered pending list.
func (s *Scheduler) pickBatch(pending []*model.TaskRecord) []*model.TaskRecord {
	var batch []*model.TaskRecord
	perSite := make(map[model.SiteID]int)
	for _, t := range pending {
		if len(batch) >= s.cfg.GlobalSlots {
			break
		}
		if t.Site != model.NoSite && perSite[t.Site] >= s.cfg.SiteSlots {
			continue
		}
		if t.Site != model.NoSite {
			perSite[t.Site]++
		}
		batch = append(batch, t)
	}
	return batch
}

// execute runs one task through its registered executor and persists the
// resulting state transition.
func (s *Scheduler) execute(ctx context.Context, t *model.TaskRecord) {
	fn := s.execs[t.Type]
	t.State = model.TaskRunning
	t.Attempts++
	t.UpdatedNanos = s.clock().UnixNano()
	if err := s.cfg.Store.PutTask(t); err != nil {
		return
	}
	s.obs.started.With(t.Type).Inc()

	err := fn(&Ctx{Context: ctx, s: s, rec: t})
	t.UpdatedNanos = s.clock().UnixNano()
	switch {
	case err == nil:
		t.State = model.TaskDone
		t.LastError = ""
		s.obs.completed.With(t.Type).Inc()
	case t.Attempts >= s.cfg.RetryLimit:
		t.State = model.TaskFailed
		t.LastError = err.Error()
		s.obs.failed.With(t.Type).Inc()
	default:
		t.State = model.TaskPending
		t.LastError = err.Error()
		s.obs.retries.With(t.Type).Inc()
	}
	_ = s.cfg.Store.PutTask(t)
}

func (s *Scheduler) updateGauges() {
	if s.obs.pending == nil {
		return
	}
	var pending, running int64
	for _, t := range s.cfg.Store.ListTasks() {
		switch t.State {
		case model.TaskPending:
			pending++
		case model.TaskRunning:
			running++
		}
	}
	s.obs.pending.Set(pending)
	s.obs.running.Set(running)
}

// throttle blocks until the shared token bucket admits n bytes. Tokens
// accrue at BytesPerSec with one second of burst; the wait honors ctx.
func (s *Scheduler) throttle(ctx context.Context, n int64) error {
	rate := float64(s.cfg.BytesPerSec)
	if rate <= 0 || n <= 0 {
		return ctx.Err()
	}
	for {
		s.thrMu.Lock()
		now := s.clock()
		s.thrTokens += now.Sub(s.thrLast).Seconds() * rate
		if s.thrTokens > rate {
			s.thrTokens = rate // burst cap: one second of budget
		}
		s.thrLast = now
		if s.thrTokens >= float64(n) {
			s.thrTokens -= float64(n)
			s.thrMu.Unlock()
			s.obs.throttled.Add(n)
			return ctx.Err()
		}
		wait := time.Duration((float64(n) - s.thrTokens) / rate * float64(time.Second))
		s.thrMu.Unlock()
		if err := s.sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// sleep waits for d via the injected Sleep hook or a context-aware timer.
func (s *Scheduler) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if s.cfg.Sleep != nil {
		s.cfg.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Start launches the background loop: one RunOnce per Interval. Safe to
// call once; Stop ends it.
//
//lint:ignore ctxfirst the loop's lifetime is detached by design: it has no caller context and is cancelled via Stop
func (s *Scheduler) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()

	go func() {
		defer close(done)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-stop
			cancel()
		}()
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			s.RunOnce(ctx)
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
}

// Stop halts the background loop and waits for in-flight tasks to stop.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
}

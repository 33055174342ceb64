package runner

import (
	"context"
	"math"
	"runtime"
	"sync"

	"repro/internal/telemetry"
)

// Pool is the campaign service's shared bounded worker pool: one fixed
// set of workers executing runs from many concurrent campaigns. Each
// campaign owns a Queue; dispatch is stride scheduling over the queues —
// every dispatch charges the chosen queue 1/weight of virtual time and
// the queue with the least accumulated virtual time goes next — so a
// 500-run campaign and a 5-run campaign of equal weight alternate
// run-for-run instead of the big one starving the small one. Per-tenant
// concurrency caps bound how many workers any one tenant can hold at
// once regardless of how many campaigns it has queued.
//
// Draining a pool implements the service's graceful-shutdown contract:
// in-flight tasks finish (and get stored by their campaigns), queued
// tasks are shed back to their campaigns synchronously (reported as
// canceled, so they stay unstored, pending for the next restart's
// resume), and no new task starts.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond

	queues        []*Queue
	tenantCap     map[string]int
	tenantRunning map[string]int
	running       int
	vtime         float64
	seq           int

	draining bool
	closed   bool
	workers  int
	wg       sync.WaitGroup
}

// NewPool starts a pool with the given worker count (<= 0 means
// GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers:       workers,
		tenantCap:     make(map[string]int),
		tenantRunning: make(map[string]int),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Workers reports the pool's fixed worker count.
func (p *Pool) Workers() int { return p.workers }

// SetTenantCap bounds how many of the pool's workers tenant may occupy
// at once; 0 removes the cap. A tenant at its cap keeps its queues
// parked — other tenants' work proceeds — until one of its runs
// finishes.
func (p *Pool) SetTenantCap(tenant string, cap int) {
	p.mu.Lock()
	if cap > 0 {
		p.tenantCap[tenant] = cap
	} else {
		delete(p.tenantCap, tenant)
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Queue is one campaign's submission lane into the pool.
type Queue struct {
	pool   *Pool
	tenant string
	stride float64
	pass   float64
	seq    int
	tasks  []func(shed bool)
	closed bool
}

// strideScale keeps strides comfortably above float rounding for any
// sane weight.
const strideScale = 1 << 16

// NewQueue registers a campaign's queue under a tenant with a fair-share
// weight (minimum 1): a weight-2 queue receives twice the dispatch rate
// of a weight-1 queue under contention.
func (p *Pool) NewQueue(tenant string, weight int) *Queue {
	if weight < 1 {
		weight = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	q := &Queue{
		pool:   p,
		tenant: tenant,
		stride: strideScale / float64(weight),
		pass:   p.vtime,
		seq:    p.seq,
	}
	p.seq++
	p.queues = append(p.queues, q)
	return q
}

// Submit enqueues one task. The pool calls task(false) from a worker
// when dispatched; a task shed before dispatch — pool draining or
// closed, queue closed — is called synchronously as task(true) so the
// submitter's accounting always completes exactly once per task.
func (q *Queue) Submit(task func(shed bool)) {
	p := q.pool
	p.mu.Lock()
	if p.draining || p.closed || q.closed {
		p.mu.Unlock()
		telemetry.Server.PoolShedTasks.Add(1)
		task(true)
		return
	}
	if len(q.tasks) == 0 && q.pass < p.vtime {
		// An idle queue rejoins at the current virtual time: its stale
		// low pass must not let it monopolize the workers to "catch up"
		// on time it spent with nothing to run.
		q.pass = p.vtime
	}
	q.tasks = append(q.tasks, task)
	p.mu.Unlock()
	p.cond.Signal()
}

// Close deregisters the queue; tasks still queued are shed. Idempotent.
func (q *Queue) Close() {
	p := q.pool
	p.mu.Lock()
	if q.closed {
		p.mu.Unlock()
		return
	}
	q.closed = true
	shed := q.tasks
	q.tasks = nil
	for i, qq := range p.queues {
		if qq == q {
			p.queues = append(p.queues[:i], p.queues[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	for _, t := range shed {
		telemetry.Server.PoolShedTasks.Add(1)
		t(true)
	}
}

// pickLocked returns the dispatchable queue with the least virtual
// time, or nil when every queue is empty or capped. Ties break toward
// the oldest queue for determinism.
func (p *Pool) pickLocked() *Queue {
	var best *Queue
	for _, q := range p.queues {
		if len(q.tasks) == 0 {
			continue
		}
		if cap, ok := p.tenantCap[q.tenant]; ok && p.tenantRunning[q.tenant] >= cap {
			continue
		}
		if best == nil || q.pass < best.pass || (q.pass == best.pass && q.seq < best.seq) {
			best = q
		}
	}
	return best
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		var q *Queue
		for {
			if p.closed {
				p.mu.Unlock()
				return
			}
			if !p.draining {
				q = p.pickLocked()
			}
			if q != nil {
				break
			}
			p.cond.Wait()
		}
		task := q.tasks[0]
		q.tasks = q.tasks[1:]
		p.vtime = math.Max(p.vtime, q.pass)
		q.pass += q.stride
		p.tenantRunning[q.tenant]++
		p.running++
		p.mu.Unlock()

		task(false)

		p.mu.Lock()
		p.tenantRunning[q.tenant]--
		p.running--
		p.mu.Unlock()
		p.cond.Broadcast()
	}
}

// Running reports how many tasks are executing right now.
func (p *Pool) Running() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running
}

// Queued reports how many submitted tasks await dispatch across every
// queue.
func (p *Pool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, q := range p.queues {
		n += len(q.tasks)
	}
	return n
}

// Drain stops dispatching, sheds every queued task back to its
// campaign, and waits for the in-flight tasks to finish — or for ctx to
// end, whichever is first. After Drain every Submit sheds immediately;
// the pool cannot be un-drained. Returns ctx's error when the wait was
// cut short.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
	}
	var shed []func(bool)
	for _, q := range p.queues {
		shed = append(shed, q.tasks...)
		q.tasks = nil
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	for _, t := range shed {
		telemetry.Server.PoolShedTasks.Add(1)
		t(true)
	}

	done := make(chan struct{})
	go func() {
		p.mu.Lock()
		for p.running > 0 && !p.closed {
			p.cond.Wait()
		}
		p.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the queues (shedding anything still queued), stops every
// worker after its current task, and waits for them to exit.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	var shed []func(bool)
	for _, q := range p.queues {
		shed = append(shed, q.tasks...)
		q.tasks = nil
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	for _, t := range shed {
		telemetry.Server.PoolShedTasks.Add(1)
		t(true)
	}
	p.wg.Wait()
}

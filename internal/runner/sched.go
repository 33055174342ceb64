package runner

import "sync"

// lane ranks a campaign's runnable tasks: a worker always takes the
// oldest task of the first non-empty lane it may run.
type lane uint8

const (
	// laneMember holds sampled members whose profile has run (or failed,
	// or was shed): finishing a profiled group before starting another
	// keeps few recorded streams live at once.
	laneMember lane = iota
	// laneProfile holds the profiles of the profile groups.
	laneProfile
	// laneFan holds the fan-out groups.
	laneFan
	// lanePoint holds the per-run points.
	lanePoint
	nLanes
)

// sched is a campaign's one scheduling path. Tasks are pushed as they
// become runnable — a profile pushes its group's members when it ends,
// the last fan-out group pushes the per-run points — and every worker
// takes the best runnable task when it is free, so one rule orders the
// work on the campaign's own workers and on a shared pool alike. On a
// pool every push submits one queue task, and that task runs whatever
// is best when the pool dispatches it: the pool's fair share counts
// runs, while the campaign still chooses which of its runs goes next.
type sched struct {
	c    *campaign
	mu   sync.Mutex
	cond *sync.Cond
	// ready holds each lane's runnable tasks in push order.
	ready [nLanes][]func(shed bool)
	// running counts each lane's tasks in progress; limit, when
	// positive, caps it (only on the campaign's own workers, where a
	// capped lane makes a free worker wait instead of taking it).
	running, limit [nLanes]int
	// open counts pushed tasks that have not returned.
	open int
}

func newSched(c *campaign) *sched {
	s := &sched{c: c}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push makes task runnable in lane l. A task runs exactly once, with
// shed set when the pool shed it or the campaign's context had ended
// before it started; a shed task must then only account for itself
// (and push what it would have pushed).
func (s *sched) push(l lane, task func(shed bool)) {
	s.mu.Lock()
	s.ready[l] = append(s.ready[l], task)
	s.open++
	s.mu.Unlock()
	if s.c.q != nil {
		s.c.q.Submit(s.step)
		return
	}
	s.cond.Broadcast()
}

// popLocked takes the best runnable task, or reports none.
func (s *sched) popLocked() (func(bool), lane, bool) {
	for l := range s.ready {
		if len(s.ready[l]) == 0 || (s.limit[l] > 0 && s.running[l] >= s.limit[l]) {
			continue
		}
		t := s.ready[l][0]
		s.ready[l][0] = nil
		s.ready[l] = s.ready[l][1:]
		s.running[l]++
		return t, lane(l), true
	}
	return nil, 0, false
}

// runTask runs a popped task and retires it.
func (s *sched) runTask(t func(bool), l lane, shed bool) {
	t(shed || s.c.ctx.Err() != nil)
	s.mu.Lock()
	s.running[l]--
	s.open--
	s.mu.Unlock()
	s.cond.Broadcast()
}

// step is one shared-pool task: it runs the campaign's best runnable
// task. Every push submits one step and every step pops one task, so a
// step always finds one (lanes are uncapped on a pool).
func (s *sched) step(shed bool) {
	s.mu.Lock()
	t, l, _ := s.popLocked()
	s.mu.Unlock()
	s.runTask(t, l, shed)
}

// run executes the pushed tasks and everything they push, and returns
// once none is left. Without a shared pool it starts up to workers
// goroutines of the campaign's own; they exit with it.
func (s *sched) run(workers int) {
	var wg sync.WaitGroup
	if s.c.q == nil {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					s.mu.Lock()
					t, l, ok := s.popLocked()
					for !ok && s.open > 0 {
						s.cond.Wait()
						t, l, ok = s.popLocked()
					}
					s.mu.Unlock()
					if !ok {
						return
					}
					s.runTask(t, l, false)
				}
			}()
		}
	}
	s.mu.Lock()
	for s.open > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	wg.Wait()
}

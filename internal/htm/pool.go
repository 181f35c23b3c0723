//simlint:allow-file determinism the pool's mutex only guards the idle list across sweep workers on the host; a taken system is reset to exactly the state a new one has, so which idle system a point gets never shows in its results

package htm

import (
	"slices"
	"sync"

	"hrwle/internal/machine"
)

// pool holds the idle systems Take reuses. A point that takes its system
// from here runs on an image that is already resident and already zero,
// instead of faulting in and clearing a new one.
//
// The pool keeps no count of the systems in use: a point that panics
// does not release its system, which then simply becomes garbage. It
// never holds more systems, in use plus idle, than the peak number in use
// at once, because Take adds a system only when no idle one fits and then
// drops an idle one first: a serial sweep holds one system, a sweep on N
// workers at most N.
var pool struct {
	sync.Mutex
	idle []*System
}

// Take returns a system in exactly the state NewSystem(machine.New(mcfg),
// cfg) returns. It resets an idle system whose storage fits mcfg
// (machine.Fits) when there is one, and otherwise builds a new system,
// dropping one idle system so the pool does not grow. Every system in the
// pool was built by Take, so its directory and threads have the capacity
// of its machine. Hand the system back with Release once the point's
// results have been read.
func Take(mcfg machine.Config, cfg Config) *System {
	s := takeIdle(mcfg)
	if s == nil {
		return NewSystem(machine.New(mcfg), cfg)
	}
	s.resetTo(mcfg, cfg)
	return s
}

// takeIdle removes from the pool and returns the most recently released
// idle system that fits mcfg. When none fits it drops the oldest idle
// system, if any, and returns nil.
func takeIdle(mcfg machine.Config) *System {
	pool.Lock()
	defer pool.Unlock()
	for i := len(pool.idle) - 1; i >= 0; i-- {
		if s := pool.idle[i]; s.M.Fits(mcfg) {
			pool.idle = slices.Delete(pool.idle, i, i+1)
			return s
		}
	}
	if len(pool.idle) > 0 {
		pool.idle = slices.Delete(pool.idle, 0, 1)
	}
	return nil
}

// Release hands s, taken with Take, back to the pool for a later Take to
// reset and reuse. It removes the machine's tracer and scheduler, so an
// idle system holds no observer, but it does not reset s: the point's
// caller may still read its machine's counters until the next Take. s
// must not be used after Release, nor released twice.
func (s *System) Release() {
	s.M.SetTracer(nil)
	s.M.SetScheduler(nil)
	pool.Lock()
	pool.idle = append(pool.idle, s)
	pool.Unlock()
}

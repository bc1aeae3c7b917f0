// Package par provides the process-wide bounded worker pool behind the
// cluster tick's phase fan-out (internal/cluster), its only user.
// One shared pool keeps the goroutine count bounded by GOMAXPROCS no
// matter how many simulations a process runs.
package par

import (
	"runtime"
	"sync"
)

// Job is one unit of work submitted to the shared pool. Implementations
// should be pointer types so the interface conversion at the Submit call
// site does not allocate; completion tracking (typically a
// sync.WaitGroup carried inside the job) is the caller's responsibility.
type Job interface{ Run() }

// pool is started lazily on first Submit and sized to GOMAXPROCS at
// that moment. Workers never exit; an idle pool costs only parked
// goroutines.
var pool struct {
	once sync.Once
	jobs chan Job
}

func start() {
	n := runtime.GOMAXPROCS(0)
	pool.jobs = make(chan Job, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for j := range pool.jobs {
				j.Run()
			}
		}()
	}
}

// Submit enqueues j on the shared pool, starting the workers on first
// use. Submit blocks only when the job channel is full, which bounds
// the queue depth of a runaway producer.
func Submit(j Job) {
	pool.once.Do(start)
	pool.jobs <- j
}

package main

import (
	"sync"
	"syscall"
	"time"
)

// outcome classifies one request.
type outcome uint8

const (
	outOK     outcome = iota
	outFailed         // transport error or non-2xx status
	outWrong          // 200 with a ranking that differs from the reference
)

// sample is one request as the load generator saw it. due is when the
// schedule said to send it, sent when it went out, end when the answer
// was read.
type sample struct {
	due, sent, end time.Duration
	// idle is true when the client had nothing in flight at due, so
	// sent-due measures how late the generator woke.
	idle     bool
	out      outcome
	status   int
	query    int32
	baseline bool
}

// latency is the request's time from its due time, so a stall also
// charges the wait it imposed on requests queued behind it.
func (s sample) latency() time.Duration { return s.end - s.due }

// spinWindow is how long before a due time the generator stops sleeping
// and spins. A nanosleep with 1µs timer slack wakes 10–50µs late on a
// loaded box; time.Sleep wakes ~1ms late, because the runtime's idle
// poll waits in whole milliseconds.
const spinWindow = 60 * time.Microsecond

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// waitUntil returns at due (or at once if due has passed): a raw
// nanosleep for the bulk of the wait, then a spin. The sleep is a
// blocking syscall, so the runtime hands this P to other goroutines
// meanwhile; the spin holds a P for at most spinWindow plus the
// sleep's overshoot.
func waitUntil(due time.Duration) {
	for {
		d := due - now()
		if d <= 0 {
			return
		}
		if d > spinWindow {
			// Timer slack is per thread; set it on whichever thread
			// this goroutine is on. The call is cheap and idempotent.
			syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the loop re-checks
		}
	}
}

// sender performs one request for client c and classifies it, naming
// the query it sent (-1 for a write) and whether it was a baseline one.
type sender func(c int) (out outcome, status int, query int32, baseline bool)

// openLoop drives clients goroutines on a fixed schedule: together they
// send rate requests per second for dur, client c taking every
// clients-th slot, whether or not earlier requests have returned. It
// returns every client's samples.
func openLoop(clients int, rate float64, dur time.Duration, send sender) [][]sample {
	interval := time.Duration(float64(time.Second) / rate)
	begin := now() + time.Millisecond
	stop := begin + dur
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			var got []sample
			for k := 0; ; k++ {
				due := begin + time.Duration(k*clients+c)*interval
				if due >= stop {
					break
				}
				idle := now() <= due
				waitUntil(due)
				sent := now()
				o, st, q, b := send(c)
				got = append(got, sample{due: due, sent: sent, end: now(), idle: idle, out: o, status: st, query: q, baseline: b})
			}
			out[c] = got
		}(c)
	}
	wg.Wait()
	return out
}

// closedLoop runs clients goroutines that each send their next request
// as soon as the previous one returns, for dur. It returns the samples
// and the measured wall time.
func closedLoop(clients int, dur time.Duration, send sender) ([][]sample, time.Duration) {
	begin := now()
	stop := begin + dur
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			var got []sample
			for t := now(); t < stop; t = now() {
				o, st, q, b := send(c)
				got = append(got, sample{due: t, sent: t, end: now(), out: o, status: st, query: q, baseline: b})
			}
			out[c] = got
		}(c)
	}
	wg.Wait()
	return out, now() - begin
}

// flatten concatenates per-client samples.
func flatten(per [][]sample) []sample {
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// lateness returns how late the generator woke for every request whose
// client was idle at its due time.
func lateness(samples []sample) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.idle {
			out = append(out, s.sent-s.due)
		}
	}
	return out
}

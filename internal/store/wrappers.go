package store

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Latency wraps a Backend and accounts HDD-like service time for every
// request. By default the delay is only *recorded* (so tests stay fast);
// with Sleep=true it is actually imposed.
type Latency struct {
	Backend
	// PerRequest is the fixed positioning cost (seek+rotate).
	PerRequest time.Duration
	// PerByte is the transfer cost per byte.
	PerByte time.Duration
	// Sleep imposes the delay for real instead of only accounting it.
	Sleep bool

	busy int64 // accumulated nanoseconds
	ops  int64
}

func (l *Latency) account(n int) {
	d := l.PerRequest + time.Duration(n)*l.PerByte
	atomic.AddInt64(&l.busy, int64(d))
	atomic.AddInt64(&l.ops, 1)
	if l.Sleep {
		time.Sleep(d)
	}
}

// ReadAt implements Backend.
func (l *Latency) ReadAt(server, volume int, p []byte, off uint64) error {
	l.account(len(p))
	return l.Backend.ReadAt(server, volume, p, off)
}

// WriteAt implements Backend.
func (l *Latency) WriteAt(server, volume int, p []byte, off uint64) error {
	l.account(len(p))
	return l.Backend.WriteAt(server, volume, p, off)
}

// BusyTime returns the total accounted device time.
func (l *Latency) BusyTime() time.Duration { return time.Duration(atomic.LoadInt64(&l.busy)) }

// Ops returns the number of requests that reached the backend.
func (l *Latency) Ops() int64 { return atomic.LoadInt64(&l.ops) }

// ErrInjected is returned by a tripped Faulty backend.
var ErrInjected = errors.New("store: injected fault")

// FaultConfig drives the probabilistic fault modes of Faulty. All
// probabilities are per-request in [0,1]; the zero value injects nothing.
type FaultConfig struct {
	// ReadFailProb / WriteFailProb fail a request outright.
	ReadFailProb, WriteFailProb float64
	// HangProb hangs a request for HangFor — or until ClearFaults releases
	// it — before completing normally, modelling a wedged device: the
	// caller, and every reader that joined its flight, waits it out.
	// HangFor defaults to 30 s.
	HangProb float64
	HangFor  time.Duration
	// LatencyProb delays a request by Latency (a served-but-slow spike
	// rather than a hang); Latency defaults to 10 ms.
	LatencyProb float64
	Latency     time.Duration
}

// Faulty wraps a Backend and injects failures — used to test that the
// SieveStore core propagates ensemble errors without corrupting its cache
// state, and by the chaos harness to drive randomized failures, hangs, and
// latency spikes into the store.
//
// Two control planes coexist: the deterministic toggles
// (FailReads/FailWrites/FailAfter) and the seeded probabilistic
// FaultConfig, with hangs and latency spikes. Both fail with ErrInjected.
type Faulty struct {
	Backend

	mu         sync.Mutex
	failReads  bool
	failWrites bool
	failAfter  int64 // fail once this many more requests have passed; -1 = off
	cfg        FaultConfig
	rng        *rand.Rand
	release    chan struct{} // closed by ClearFaults to free current hangs
}

// NewFaulty wraps backend with fault injection disabled.
func NewFaulty(backend Backend) *Faulty {
	return &Faulty{
		Backend:   backend,
		failAfter: -1,
		rng:       rand.New(rand.NewSource(1)),
		release:   make(chan struct{}),
	}
}

// Seed reseeds the probabilistic fault source (deterministic per seed).
func (f *Faulty) Seed(seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rng = rand.New(rand.NewSource(seed))
}

// SetConfig installs a probabilistic fault configuration (replacing any
// previous one). Requests already hanging keep hanging until their HangFor
// elapses or ClearFaults runs.
func (f *Faulty) SetConfig(cfg FaultConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg = cfg
}

// ClearFaults disarms every fault mode — the deterministic toggles and
// the probabilistic config — and releases all currently-hanging requests,
// which then complete against the backend.
func (f *Faulty) ClearFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failReads, f.failWrites, f.failAfter = false, false, -1
	f.cfg = FaultConfig{}
	close(f.release)
	f.release = make(chan struct{})
}

// FailReads toggles immediate read failures.
func (f *Faulty) FailReads(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failReads = on
}

// FailWrites toggles immediate write failures.
func (f *Faulty) FailWrites(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWrites = on
}

// FailAfter arms a one-shot failure after n successful requests.
func (f *Faulty) FailAfter(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAfter = n
}

// decide applies the fault planes to one request: it may sleep (latency
// spike), park until released or timed out (hang), and finally returns
// the injected error, nil meaning the request proceeds to the backend.
func (f *Faulty) decide(isRead bool) error {
	f.mu.Lock()
	// Deterministic toggles.
	if (isRead && f.failReads) || (!isRead && f.failWrites) {
		f.mu.Unlock()
		return ErrInjected
	}
	if f.failAfter >= 0 {
		if f.failAfter == 0 {
			f.failAfter = -1
			f.mu.Unlock()
			return ErrInjected
		}
		f.failAfter--
	}
	// Probabilistic plane.
	cfg := f.cfg
	release := f.release
	var failErr error
	var hang, spike time.Duration
	p := cfg.WriteFailProb
	if isRead {
		p = cfg.ReadFailProb
	}
	if p > 0 && f.rng.Float64() < p {
		failErr = ErrInjected
	}
	if cfg.HangProb > 0 && f.rng.Float64() < cfg.HangProb {
		if hang = cfg.HangFor; hang <= 0 {
			hang = 30 * time.Second
		}
	} else if cfg.LatencyProb > 0 && f.rng.Float64() < cfg.LatencyProb {
		if spike = cfg.Latency; spike <= 0 {
			spike = 10 * time.Millisecond
		}
	}
	f.mu.Unlock()
	if hang > 0 {
		t := time.NewTimer(hang)
		select {
		case <-t.C:
		case <-release:
			t.Stop()
		}
	} else if spike > 0 {
		time.Sleep(spike)
	}
	return failErr
}

// ReadAt implements Backend.
func (f *Faulty) ReadAt(server, volume int, p []byte, off uint64) error {
	if err := f.decide(true); err != nil {
		return err
	}
	return f.Backend.ReadAt(server, volume, p, off)
}

// WriteAt implements Backend.
func (f *Faulty) WriteAt(server, volume int, p []byte, off uint64) error {
	if err := f.decide(false); err != nil {
		return err
	}
	return f.Backend.WriteAt(server, volume, p, off)
}

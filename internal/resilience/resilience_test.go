package resilience

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// transientErr tags an error as retryable for Transient.
type transientErr struct{ err error }

func (e transientErr) Error() string   { return e.err.Error() }
func (e transientErr) Unwrap() error   { return e.err }
func (e transientErr) Transient() bool { return true }

// MarkTransient wraps err so Transient reports it retryable. A nil err
// stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return transientErr{err}
}

// blockingBackend hangs every request on a channel until released.
type blockingBackend struct {
	release chan struct{}
	entered atomic.Int64
}

func (b *blockingBackend) ReadAt(server, volume int, p []byte, off uint64) error {
	b.entered.Add(1)
	<-b.release
	for i := range p {
		p[i] = 0xAB
	}
	return nil
}

func (b *blockingBackend) WriteAt(server, volume int, p []byte, off uint64) error {
	b.entered.Add(1)
	<-b.release
	return nil
}

// scriptBackend fails according to a per-call error script (nil = ok).
type scriptBackend struct {
	mu     sync.Mutex
	script []error
	calls  int
	data   byte // fill for successful reads
}

func (s *scriptBackend) next() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.calls < len(s.script) {
		err = s.script[s.calls]
	}
	s.calls++
	return err
}

func (s *scriptBackend) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *scriptBackend) ReadAt(server, volume int, p []byte, off uint64) error {
	if err := s.next(); err != nil {
		return err
	}
	for i := range p {
		p[i] = s.data
	}
	return nil
}

func (s *scriptBackend) WriteAt(server, volume int, p []byte, off uint64) error {
	return s.next()
}

func TestDeadlineTimesOutHungRead(t *testing.T) {
	bb := &blockingBackend{release: make(chan struct{})}
	defer close(bb.release)
	d := WithDeadline(bb, 20*time.Millisecond)
	p := make([]byte, 16)
	start := time.Now()
	err := d.ReadAt(3, 0, p, 512)
	if !errors.Is(err, ErrBackendTimeout) {
		t.Fatalf("err = %v, want ErrBackendTimeout", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("timeout took %v", el)
	}
	var de *DeviceError
	if !errors.As(err, &de) || de.Server != 3 {
		t.Fatalf("err = %v, want DeviceError for server 3", err)
	}
	if !Transient(err) {
		t.Fatal("timeout should classify transient")
	}
}

func TestDeadlineAbandonedReadCannotScribble(t *testing.T) {
	bb := &blockingBackend{release: make(chan struct{})}
	d := WithDeadline(bb, 10*time.Millisecond)
	p := make([]byte, 32)
	if err := d.ReadAt(0, 0, p, 0); !errors.Is(err, ErrBackendTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	// Let the straggler complete: it must write into its private copy,
	// never the caller's (possibly reused) buffer.
	close(bb.release)
	for i := 0; i < 100 && bb.entered.Load() < 1; i++ {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if !bytes.Equal(p, make([]byte, 32)) {
		t.Fatal("late completion scribbled into the caller's buffer")
	}
}

func TestDeadlinePassthroughAndSuccess(t *testing.T) {
	sb := &scriptBackend{data: 7}
	if d := WithDeadline(sb, 0); d != Backend(sb) {
		t.Fatal("timeout 0 should return the backend unchanged")
	}
	d := WithDeadline(sb, time.Second)
	p := make([]byte, 8)
	if err := d.ReadAt(0, 0, p, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if p[0] != 7 || p[7] != 7 {
		t.Fatalf("read did not copy out: %v", p)
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{MarkTransient(errors.New("flaky")), true},
		{ErrBackendTimeout, true},
		{&DeviceError{Err: ErrBackendTimeout}, true},
		{ErrCircuitOpen, false},
	}
	for _, c := range cases {
		if got := Transient(c.err); got != c.want {
			t.Errorf("Transient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// retryOnly wraps sb with p as its only layer: no deadline, no breaker.
func retryOnly(sb *scriptBackend, p RetryPolicy) *Resilient {
	return Wrap(sb, Config{Retry: p, Breaker: BreakerConfig{Threshold: -1}})
}

func TestRetryTransientUntilSuccess(t *testing.T) {
	flaky := MarkTransient(errors.New("blip"))
	sb := &scriptBackend{script: []error{flaky, flaky, nil}}
	var slept int
	r := retryOnly(sb, RetryPolicy{Max: 3, Sleep: func(time.Duration) { slept++ }})
	err := r.WriteAt(0, 0, nil, 0)
	if err != nil {
		t.Fatalf("err = %v, want nil after retries", err)
	}
	if sb.Calls() != 3 || slept != 2 {
		t.Fatalf("calls=%d slept=%d, want 3/2", sb.Calls(), slept)
	}
}

func TestRetryFailsFastOnPermanent(t *testing.T) {
	perm := errors.New("volume does not exist")
	sb := &scriptBackend{script: []error{perm, nil}}
	r := retryOnly(sb, RetryPolicy{Max: 5, Sleep: func(time.Duration) { t.Fatal("slept on a permanent error") }})
	if err := r.WriteAt(0, 0, nil, 0); !errors.Is(err, perm) {
		t.Fatalf("err = %v, want the permanent error", err)
	}
	if sb.Calls() != 1 {
		t.Fatalf("calls=%d, want exactly 1", sb.Calls())
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	flaky := MarkTransient(errors.New("blip"))
	sb := &scriptBackend{script: []error{flaky, flaky, flaky, flaky, flaky}}
	r := retryOnly(sb, RetryPolicy{Max: 2, Sleep: func(time.Duration) {}})
	if err := r.WriteAt(0, 0, nil, 0); !errors.Is(err, flaky) {
		t.Fatalf("err = %v, want the transient error after budget", err)
	}
	if sb.Calls() != 3 { // 1 + 2 retries
		t.Fatalf("calls=%d, want 3", sb.Calls())
	}
}

func TestBreakerTripHalfOpenClose(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(BreakerConfig{Threshold: 3, OpenFor: time.Second, Now: clock})

	fail := errors.New("dead device")
	// Three failures within the window trip it.
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected request %d: %v", i, err)
		}
		b.Record(fail)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after trip: Allow = %v, want ErrCircuitOpen", err)
	}
	if !b.Open() || b.Trips() != 1 {
		t.Fatalf("open=%v trips=%d, want true/1", b.Open(), b.Trips())
	}

	// Cool-down elapses → half-open: exactly one probe allowed.
	now = now.Add(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second concurrent probe allowed, want ErrCircuitOpen")
	}

	// Probe fails → re-open.
	b.Record(fail)
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("failed probe should re-open the circuit")
	}
	if b.Trips() != 2 {
		t.Fatalf("trips=%d, want 2", b.Trips())
	}

	// Next cool-down: probe succeeds → closed, and one later failure does
	// not immediately re-trip (the window restarted).
	now = now.Add(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Record(nil)
	if b.Open() {
		t.Fatal("successful probe should close the circuit")
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed-after-recovery breaker rejected: %v", err)
	}
	b.Record(fail)
	if err := b.Allow(); err != nil {
		t.Fatalf("one failure after recovery re-tripped: %v", err)
	}
	b.Record(nil)
}

func TestBreakerToleratesIsolatedFailures(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 3})
	fail := MarkTransient(errors.New("blip"))
	// Alternate failure/success: never 3 failures in the last 6.
	for i := 0; i < 20; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("breaker tripped on isolated failures at i=%d", i)
		}
		if i%3 == 0 {
			b.Record(fail)
		} else {
			b.Record(nil)
		}
	}
}

// TestBreakerWindowIsTwiceThreshold: the breaker trips on Threshold
// failures within its last 2×Threshold outcomes, and not on Threshold
// failures spread one outcome wider.
func TestBreakerWindowIsTwiceThreshold(t *testing.T) {
	fail := errors.New("dead device")
	run := func(outcomes string) *Breaker {
		b := NewBreaker(BreakerConfig{Threshold: 3})
		for i, o := range outcomes {
			if err := b.Allow(); err != nil {
				t.Fatalf("%s: tripped before outcome %d", outcomes, i)
			}
			if o == 'F' {
				b.Record(fail)
			} else {
				b.Record(nil)
			}
		}
		return b
	}
	if b := run("FSSFSF"); b.Trips() != 1 {
		t.Errorf("3 failures in 6 outcomes: trips = %d, want 1", b.Trips())
	}
	if b := run("FSSSSSFF"); b.Trips() != 0 {
		t.Errorf("3 failures in 8 outcomes, 2 in the last 6: trips = %d, want 0", b.Trips())
	}
}

// TestBackoffBounds: retry n waits in (0, min(1 s, 10 ms·2ⁿ)].
func TestBackoffBounds(t *testing.T) {
	for n := 0; n < 70; n++ {
		limit := retryCap
		if n < 7 {
			limit = retryBase << n
		}
		for i := 0; i < 100; i++ {
			if d := backoff(n); d <= 0 || d > limit {
				t.Fatalf("backoff(%d) = %v, want in (0, %v]", n, d, limit)
			}
		}
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: -1})
	for i := 0; i < 10; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal("disabled breaker rejected a request")
		}
		b.Record(errors.New("fail"))
	}
}

func TestWrapRetriesAndCountsTimeouts(t *testing.T) {
	flaky := MarkTransient(errors.New("blip"))
	sb := &scriptBackend{script: []error{flaky, nil}, data: 9}
	r := Wrap(sb, Config{
		Retry:   RetryPolicy{Max: 2, Sleep: func(time.Duration) {}},
		Breaker: BreakerConfig{Threshold: 5},
	})
	p := make([]byte, 4)
	if err := r.ReadAt(0, 0, p, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if p[0] != 9 {
		t.Fatalf("read data %v", p)
	}
	s := r.Stats()
	if s.Retries != 1 || s.TransientErrors != 1 || s.PermanentErrors != 0 {
		t.Fatalf("stats = %+v, want 1 retry / 1 transient", s)
	}
}

func TestWrapDeadDeviceFastFails(t *testing.T) {
	dead := MarkTransient(errors.New("no response"))
	var script []error
	for i := 0; i < 100; i++ {
		script = append(script, dead)
	}
	sb := &scriptBackend{script: script}
	now := time.Unix(0, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	r := Wrap(sb, Config{
		Retry:   RetryPolicy{Max: 1, Sleep: func(time.Duration) {}},
		Breaker: BreakerConfig{Threshold: 4, OpenFor: time.Minute, Now: clock},
	})
	p := make([]byte, 4)
	// Drive until the breaker trips, then verify fast-fail without
	// touching the backend.
	for i := 0; i < 4; i++ {
		r.ReadAt(1, 2, p, 0)
	}
	calls := sb.Calls()
	err := r.ReadAt(1, 2, p, 0)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if sb.Calls() != calls {
		t.Fatal("fast-fail touched the backend")
	}
	var de *DeviceError
	if !errors.As(err, &de) || de.Server != 1 || de.Volume != 2 {
		t.Fatalf("err = %v, want DeviceError 1:2", err)
	}
	s := r.Stats()
	if s.BreakerFastFails == 0 || s.BreakerTrips == 0 || s.OpenDevices != 1 {
		t.Fatalf("stats = %+v, want fast-fails/trips/open", s)
	}
	// A healthy other device is unaffected.
	healthy := &scriptBackend{data: 3}
	r2 := Wrap(healthy, Config{Breaker: BreakerConfig{Threshold: 4, Now: clock}})
	if err := r2.ReadAt(9, 9, p, 0); err != nil {
		t.Fatalf("healthy device: %v", err)
	}
	// And on the same wrapper, a different device's breaker is separate.
	if err := r.WriteAt(5, 5, p, 0); err != nil {
		// scriptBackend's shared script still yields `dead` — but it must
		// NOT be a circuit-open error: the 5:5 breaker is closed.
		if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("device 5:5 shares 1:2's breaker: %v", err)
		}
	}
}

func TestWrapConcurrentSmoke(t *testing.T) {
	flaky := MarkTransient(errors.New("blip"))
	script := make([]error, 0, 600)
	for i := 0; i < 600; i++ {
		if i%7 == 0 {
			script = append(script, flaky)
		} else {
			script = append(script, nil)
		}
	}
	sb := &scriptBackend{script: script}
	r := Wrap(sb, Config{
		Timeout: time.Second,
		Retry:   RetryPolicy{Max: 2},
		Breaker: BreakerConfig{Threshold: 50},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := make([]byte, 8)
			for i := 0; i < 50; i++ {
				r.ReadAt(g%3, 0, p, uint64(i)*512)
				r.WriteAt(g%3, 0, p, uint64(i)*512)
			}
		}(g)
	}
	wg.Wait()
	r.Stats() // must not race
}

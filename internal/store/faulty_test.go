package store

import (
	"errors"
	"testing"
	"time"
)

func newFaultyMem(t *testing.T) (*Faulty, *Mem) {
	t.Helper()
	m := NewMem()
	m.AddVolume(0, 0, 1<<20)
	return NewFaulty(m), m
}

func TestFaultyLegacyTogglesStillWork(t *testing.T) {
	f, _ := newFaultyMem(t)
	p := make([]byte, 512)
	f.FailReads(true)
	if err := f.ReadAt(0, 0, p, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("read err = %v, want ErrInjected", err)
	}
	if err := f.WriteAt(0, 0, p, 0); err != nil {
		t.Fatalf("write should pass with only reads failing: %v", err)
	}
	f.FailReads(false)
	f.FailAfter(1)
	if err := f.ReadAt(0, 0, p, 0); err != nil {
		t.Fatalf("first read should pass: %v", err)
	}
	if err := f.ReadAt(0, 0, p, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed one-shot: err = %v, want ErrInjected", err)
	}
	if err := f.ReadAt(0, 0, p, 0); err != nil {
		t.Fatalf("one-shot should disarm: %v", err)
	}
}

func TestFaultyProbabilistic(t *testing.T) {
	f, _ := newFaultyMem(t)
	f.Seed(42)
	f.SetConfig(FaultConfig{ReadFailProb: 1.0})
	p := make([]byte, 512)
	if err := f.ReadAt(0, 0, p, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if err := f.WriteAt(0, 0, p, 0); err != nil {
		t.Fatalf("writes unaffected by ReadFailProb: %v", err)
	}
	f.SetConfig(FaultConfig{WriteFailProb: 1.0})
	if err := f.WriteAt(0, 0, p, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestFaultyHangReleasedByClearFaults(t *testing.T) {
	f, _ := newFaultyMem(t)
	f.SetConfig(FaultConfig{HangProb: 1.0, HangFor: time.Minute})
	p := make([]byte, 512)
	done := make(chan error, 1)
	go func() { done <- f.ReadAt(0, 0, p, 0) }()
	select {
	case err := <-done:
		t.Fatalf("request completed instead of hanging: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	f.ClearFaults()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("released request failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ClearFaults did not release the hang")
	}
}

func TestFaultyHangTimesOutOnItsOwn(t *testing.T) {
	f, _ := newFaultyMem(t)
	f.SetConfig(FaultConfig{HangProb: 1.0, HangFor: 20 * time.Millisecond})
	p := make([]byte, 512)
	start := time.Now()
	if err := f.ReadAt(0, 0, p, 0); err != nil {
		t.Fatalf("hang-then-complete failed: %v", err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("completed in %v, before the hang elapsed", el)
	}
}

func TestFaultyLatencySpike(t *testing.T) {
	f, _ := newFaultyMem(t)
	f.SetConfig(FaultConfig{LatencyProb: 1.0, Latency: 30 * time.Millisecond})
	p := make([]byte, 512)
	start := time.Now()
	if err := f.WriteAt(0, 0, p, 0); err != nil {
		t.Fatalf("spiked write failed: %v", err)
	}
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Fatalf("write took %v, spike not applied", el)
	}
}

func TestFaultyClearFaultsDisarmsEverything(t *testing.T) {
	f, _ := newFaultyMem(t)
	f.FailReads(true)
	f.FailWrites(true)
	f.FailAfter(0)
	f.SetConfig(FaultConfig{ReadFailProb: 1.0, WriteFailProb: 1.0})
	f.ClearFaults()
	p := make([]byte, 512)
	if err := f.ReadAt(0, 0, p, 0); err != nil {
		t.Fatalf("read after ClearFaults: %v", err)
	}
	if err := f.WriteAt(0, 0, p, 0); err != nil {
		t.Fatalf("write after ClearFaults: %v", err)
	}
}

package store

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func TestMemReadWriteRoundTrip(t *testing.T) {
	m := NewMem()
	m.AddVolume(1, 2, 1<<20)
	data := []byte("hello, ensemble")
	if err := m.WriteAt(1, 2, data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.ReadAt(1, 2, got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("got %q", got)
	}
}

func TestMemZeroFill(t *testing.T) {
	m := NewMem()
	m.AddVolume(0, 0, 1<<20)
	got := make([]byte, 512)
	got[0] = 0xFF
	if err := m.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %x, want 0", i, b)
		}
	}
}

func TestMemCrossExtentIO(t *testing.T) {
	m := NewMem()
	m.AddVolume(0, 0, 1<<20)
	// Write a pattern straddling the 64 KiB extent boundary.
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	off := uint64(extentSize - 1500)
	if err := m.WriteAt(0, 0, data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.ReadAt(0, 0, got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-extent round trip failed")
	}
	if len(m.extents) != 2 {
		t.Errorf("extents = %d, want 2", len(m.extents))
	}
}

func TestMemBoundsAndUnknownVolume(t *testing.T) {
	m := NewMem()
	m.AddVolume(0, 0, 4096)
	buf := make([]byte, 512)
	if err := m.ReadAt(0, 1, buf, 0); err == nil {
		t.Error("unknown volume should fail")
	}
	if err := m.WriteAt(0, 0, buf, 4096); err == nil {
		t.Error("write past capacity should fail")
	}
	if err := m.ReadAt(0, 0, buf, 3584); err != nil {
		t.Errorf("read at exact end failed: %v", err)
	}
}

func TestMemSparseReadsDontMaterialize(t *testing.T) {
	m := NewMem()
	m.AddVolume(0, 0, 1<<30)
	buf := make([]byte, 4096)
	for off := uint64(0); off < 10; off++ {
		if err := m.ReadAt(0, 0, buf, off*1<<20); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.extents) != 0 {
		t.Errorf("reads materialized %d extents", len(m.extents))
	}
}

func TestMemPropertyRoundTrip(t *testing.T) {
	m := NewMem()
	m.AddVolume(0, 0, 1<<22)
	f := func(off uint32, val byte, length uint16) bool {
		o := uint64(off) % (1 << 21)
		n := int(length)%2048 + 1
		data := bytes.Repeat([]byte{val}, n)
		if err := m.WriteAt(0, 0, data, o); err != nil {
			return false
		}
		got := make([]byte, n)
		if err := m.ReadAt(0, 0, got, o); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLatencyAccounting(t *testing.T) {
	m := NewMem()
	m.AddVolume(0, 0, 1<<20)
	l := &Latency{Backend: m, PerRequest: 8 * time.Millisecond, PerByte: 10 * time.Nanosecond}
	buf := make([]byte, 4096)
	if err := l.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if l.Ops() != 2 {
		t.Errorf("ops = %d", l.Ops())
	}
	want := 2 * (8*time.Millisecond + 4096*10*time.Nanosecond)
	if got := l.BusyTime(); got != want {
		t.Errorf("busy = %v, want %v", got, want)
	}
}

func TestFaultyInjection(t *testing.T) {
	m := NewMem()
	m.AddVolume(0, 0, 1<<20)
	f := NewFaulty(m)
	buf := make([]byte, 512)
	if err := f.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatalf("unexpected failure: %v", err)
	}
	f.FailReads(true)
	if err := f.ReadAt(0, 0, buf, 0); err != ErrInjected {
		t.Errorf("want ErrInjected, got %v", err)
	}
	if err := f.WriteAt(0, 0, buf, 0); err != nil {
		t.Errorf("writes should still pass: %v", err)
	}
	f.FailReads(false)
	f.FailAfter(1)
	if err := f.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatalf("first request should pass: %v", err)
	}
	if err := f.WriteAt(0, 0, buf, 0); err != ErrInjected {
		t.Errorf("armed failure did not fire: %v", err)
	}
	if err := f.WriteAt(0, 0, buf, 0); err != nil {
		t.Errorf("one-shot failure should disarm: %v", err)
	}
}

func TestFileBackendRoundTrip(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.AddVolume(2, 1, 1<<20); err != nil {
		t.Fatal(err)
	}
	data := []byte("durable ensemble data")
	if err := f.WriteAt(2, 1, data, 8192); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f.ReadAt(2, 1, got, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
}

func TestFileBackendSparseReads(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.AddVolume(0, 0, 1<<24); err != nil {
		t.Fatal(err)
	}
	// Unwritten range reads as zeros even far past any written extent.
	got := bytes.Repeat([]byte{0xFF}, 4096)
	if err := f.ReadAt(0, 0, got, 1<<20); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %x", i, b)
		}
	}
	// Partial overlap with a written extent.
	if err := f.WriteAt(0, 0, []byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	got = bytes.Repeat([]byte{0xFF}, 6)
	if err := f.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 0, 0, 0}) {
		t.Errorf("partial read = %v", got)
	}
}

func TestFileBackendPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	f1, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.AddVolume(0, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	data := []byte("survives restart")
	if err := f1.WriteAt(0, 0, data, 512); err != nil {
		t.Fatal(err)
	}
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if err := f2.AddVolume(0, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f2.ReadAt(0, 0, got, 512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("data lost across reopen")
	}
}

func TestFileBackendBounds(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.AddVolume(0, 0, 4096); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := f.ReadAt(0, 1, buf, 0); err == nil {
		t.Error("unknown volume accepted")
	}
	if err := f.WriteAt(0, 0, buf, 4096); err == nil {
		t.Error("write past capacity accepted")
	}
}

func TestFileBackendWorksUnderCore(t *testing.T) {
	// The file backend must satisfy the same Backend contract the core
	// store depends on — exercise a small read/write mix through it.
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.AddVolume(0, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	var b Backend = f
	data := bytes.Repeat([]byte{7}, 512)
	for i := uint64(0); i < 32; i++ {
		if err := b.WriteAt(0, 0, data, i*512); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, 32*512)
	if err := b.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	for i, bb := range got {
		if bb != 7 {
			t.Fatalf("byte %d = %x", i, bb)
		}
	}
}

package block

import (
	"testing"
	"testing/quick"
)

func TestMakeKeyRoundTrip(t *testing.T) {
	cases := []struct {
		server, volume int
		number         uint64
	}{
		{0, 0, 0},
		{12, 4, 123456789},
		{MaxServers - 1, MaxVolumes - 1, MaxBlockNumber},
		{1, 0, 1},
		{0, 1, MaxBlockNumber - 1},
	}
	for _, c := range cases {
		k := MakeKey(c.server, c.volume, c.number)
		if k.Server() != c.server {
			t.Errorf("MakeKey(%d,%d,%d).Server() = %d", c.server, c.volume, c.number, k.Server())
		}
		if k.Volume() != c.volume {
			t.Errorf("MakeKey(%d,%d,%d).Volume() = %d", c.server, c.volume, c.number, k.Volume())
		}
		if k.Number() != c.number {
			t.Errorf("MakeKey(%d,%d,%d).Number() = %d", c.server, c.volume, c.number, k.Number())
		}
	}
}

func TestMakeKeyRoundTripProperty(t *testing.T) {
	f := func(server, volume uint8, number uint64) bool {
		s := int(server) % MaxServers
		v := int(volume) % MaxVolumes
		n := number & MaxBlockNumber
		k := MakeKey(s, v, n)
		return k.Server() == s && k.Volume() == v && k.Number() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderingWithinVolume(t *testing.T) {
	// Keys of consecutive blocks in a volume must be consecutive integers:
	// the external-sort pipeline in sieved relies on run detection.
	f := func(number uint64) bool {
		n := number & (MaxBlockNumber - 1) // leave room for +1
		k := MakeKey(3, 2, n)
		return k+1 == MakeKey(3, 2, n+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeKeyPanicsOutOfRange(t *testing.T) {
	cases := []struct {
		name           string
		server, volume int
		number         uint64
	}{
		{"server", MaxServers, 0, 0},
		{"negative server", -1, 0, 0},
		{"volume", 0, MaxVolumes, 0},
		{"number", 0, 0, MaxBlockNumber + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeKey(%d,%d,%d) did not panic", c.server, c.volume, c.number)
				}
			}()
			MakeKey(c.server, c.volume, c.number)
		})
	}
}

func TestKeyOffset(t *testing.T) {
	k := MakeKey(1, 1, 10)
	if got := k.Offset(); got != 10*Size {
		t.Errorf("Offset() = %d, want %d", got, 10*Size)
	}
}

func TestKeyString(t *testing.T) {
	k := MakeKey(7, 3, 42)
	if got := k.String(); got != "7:3:42" {
		t.Errorf("String() = %q", got)
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "Read" || Write.String() != "Write" {
		t.Errorf("Kind strings wrong: %q %q", Read, Write)
	}
}

func TestRequestBlocks(t *testing.T) {
	cases := []struct {
		name   string
		offset uint64
		length uint32
		blocks int
	}{
		{"single aligned block", 0, 512, 1},
		{"zero length", 1024, 0, 1},
		{"one page", 0, 4096, 8},
		{"page plus one byte", 0, 4097, 9},
		{"unaligned straddle", 511, 2, 2},
		{"unaligned page straddle", 4095, 2, 2},
		{"large", 0, 65536, 128},
		{"mid-volume", 1 << 20, 8192, 16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := Request{Server: 0, Volume: 0, Offset: c.offset, Length: c.length}
			if got := r.Blocks(); got != c.blocks {
				t.Errorf("Blocks() = %d, want %d", got, c.blocks)
			}
		})
	}
}

func TestRequestFirstBlockEnd(t *testing.T) {
	r := Request{Server: 2, Volume: 1, Offset: 4096, Length: 1024}
	if got := r.FirstBlock(); got != MakeKey(2, 1, 8) {
		t.Errorf("FirstBlock() = %v", got)
	}
	if got := r.End(); got != 5120 {
		t.Errorf("End() = %d", got)
	}
}

func TestPageHashIsPerPage(t *testing.T) {
	// Property: the blocks of a page share a hash; the same page number on
	// another volume, or the next page, gets another.
	f := func(server, volume uint8, number uint32) bool {
		k := MakeKey(int(server%MaxServers), int(volume%MaxVolumes), uint64(number))
		first := k - k%BlocksPerPage
		other := MakeKey((k.Server()+1)%MaxServers, k.Volume(), k.Number())
		return k.PageHash() == first.PageHash() && k.PageHash() == (first+BlocksPerPage-1).PageHash() &&
			k.PageHash() != (first+BlocksPerPage).PageHash() && k.PageHash() != other.PageHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/block"
	"repro/internal/sieve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// op is one block I/O of a pre-generated stream. time is the virtual trace
// clock in nanoseconds (0 on workloads that run on the wall clock).
type op struct {
	time   int64
	off    uint64
	n      uint32
	server uint8
	volume uint8
	write  bool
}

func (o *op) blocks() int { return int(o.n / block.Size) }

// inputs is everything a run needs, generated from the seed alone.
type inputs struct {
	warm []op // issued through the measured path before timing starts
	ops  []op // the measured stream, pulled in order from one shared index
	// rotateEvery > 0: Client.RotateEpoch()+Flush() once after the warm-up
	// and again before every rotateEvery-th measured op.
	rotateEvery int
	// virtualClock: the store's Options.Now follows the largest op.time
	// issued so far, so sieve windows see trace time.
	virtualClock bool

	// Set-up cost and the simulator's reference, *_trace only.
	genS, simS float64
	simHit     float64
}

// streamHash fingerprints a stream; the tests pin seed-determinism with it
// and every result record carries it.
func streamHash(streams ...[]op) uint64 {
	h := fnv.New64a()
	var b [8 + 8 + 4 + 3]byte
	for _, s := range streams {
		for i := range s {
			o := &s[i]
			binary.LittleEndian.PutUint64(b[0:], uint64(o.time))
			binary.LittleEndian.PutUint64(b[8:], o.off)
			binary.LittleEndian.PutUint32(b[16:], o.n)
			b[20], b[21], b[22] = o.server, o.volume, 0
			if o.write {
				b[22] = 1
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

const chunk = 4096

// zipfChunks draws chunk indexes in [0,n) with popularity Zipf(s=1.1) over
// a seed-chosen permutation, so the hot chunks are scattered over the span
// instead of packed at its start.
type zipfChunks struct {
	z    *rand.Zipf
	perm []int
}

func newZipfChunks(r *rand.Rand, n int) zipfChunks {
	return zipfChunks{z: rand.NewZipf(r, 1.1, 1, uint64(n-1)), perm: r.Perm(n)}
}

func (z zipfChunks) next() int { return z.perm[z.z.Uint64()] }

// genHot is lib_hot: 4 KiB reads, Zipf over a 4 MiB span (half the cache).
// The warm-up reads the span four times; the sieve admits a block on about
// its 13th miss, so the hottest chunks become resident within the first
// few hundred thousand measured ops and the rest of the run is pure hits.
func genHot(seed int64, n int) (*inputs, error) {
	const chunks = 4 << 20 / chunk
	r := rand.New(rand.NewSource(seed))
	z := newZipfChunks(r, chunks)
	in := &inputs{ops: make([]op, n)}
	for pass := 0; pass < 4; pass++ {
		for c := 0; c < chunks; c++ {
			in.warm = append(in.warm, op{off: uint64(c) * chunk, n: chunk})
		}
	}
	for i := range in.ops {
		in.ops[i] = op{off: uint64(z.next()) * chunk, n: chunk}
	}
	return in, nil
}

// The *_trace workloads replay internal/workload's MSR-style ensemble at
// 1/2048 scale under the paper's sieve, scaled like the trace.
const (
	traceScale     = 2048
	traceLastDay   = 7
	cacheBytes     = 8 << 20
	cacheBlocks    = cacheBytes / block.Size
	traceIMCTSlots = 1 << 28 / traceScale
)

func traceSieve() sieve.CConfig {
	return sieve.CConfig{IMCTSize: traceIMCTSlots, T1: 9, T2: 4, Window: 8 * time.Hour, Subwindows: 4}
}

// genTrace is lib_trace and wire_trace: day 0 warms, then the first n
// requests of days 1–7 are measured. It also runs the trace-driven
// simulator over the same requests as the hit-ratio reference.
func genTrace(seed int64, n int) (*inputs, error) {
	t0 := time.Now()
	cfg := workload.Default(traceScale)
	cfg.Seed = seed
	cfg.Days = traceLastDay + 1
	gen, err := workload.New(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{virtualClock: true}
	days := make([][]block.Request, 0, cfg.Days)
	for d := 0; d <= traceLastDay && (d == 0 || len(in.ops) < n); d++ {
		reqs, err := gen.Day(d)
		if err != nil {
			return nil, err
		}
		if d > 0 && len(reqs) > n-len(in.ops) {
			reqs = reqs[:n-len(in.ops)]
		}
		days = append(days, reqs)
		for i := range reqs {
			o := requestOp(&reqs[i])
			if d == 0 {
				in.warm = append(in.warm, o)
			} else {
				in.ops = append(in.ops, o)
			}
		}
	}
	if len(in.ops) < n {
		return nil, fmt.Errorf("trace holds %d measured requests, need %d", len(in.ops), n)
	}
	in.genS = time.Since(t0).Seconds()

	t0 = time.Now()
	policy, err := sieve.NewC(traceSieve())
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContinuous(sim.NewSliceTrace(days...), cacheBlocks, policy)
	if err != nil {
		return nil, err
	}
	var hits, accesses int64
	for _, d := range res.Days[1:] {
		hits += d.Hits()
		accesses += d.Accesses
	}
	in.simHit = float64(hits) / float64(accesses)
	in.simS = time.Since(t0).Seconds()
	return in, nil
}

// requestOp aligns a trace request outward to block boundaries, as
// internal/replay does: the store API is block-granular.
func requestOp(r *block.Request) op {
	off := r.Offset / block.Size * block.Size
	end := (r.End() + block.Size - 1) / block.Size * block.Size
	if end == off {
		end = off + block.Size
	}
	return op{
		time: r.Time, off: off, n: uint32(end - off),
		server: uint8(r.Server), volume: uint8(r.Volume), write: r.Kind == block.Write,
	}
}

// genEpochs is wire_epochs: 4 servers × 64 MiB, per-server Zipf, 70:30
// read:write, 85 % 4 KiB / 15 % 64 KiB, eight epochs of n/8 ops after one
// warm-up epoch.
const epochs = 8

func genEpochs(seed int64, n int) (*inputs, error) {
	const (
		servers = 4
		chunks  = 64 << 20 / chunk
		big     = 64 << 10
	)
	r := rand.New(rand.NewSource(seed))
	var z [servers]zipfChunks
	for s := range z {
		z[s] = newZipfChunks(r, chunks)
	}
	every := n / epochs
	all := make([]op, every+n)
	for i := range all {
		s := r.Intn(servers)
		c := z[s].next()
		o := op{server: uint8(s), n: chunk, write: r.Float64() < 0.30}
		if r.Float64() < 0.15 {
			o.n = big
			if c > chunks-big/chunk {
				c = chunks - big/chunk
			}
		}
		o.off = uint64(c) * chunk
		all[i] = o
	}
	return &inputs{warm: all[:every], ops: all[every:], rotateEvery: every}, nil
}

package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/block"
	"repro/internal/core"
)

func fillByte(p []byte, b byte) {
	for i := range p {
		p[i] = b
	}
}

func TestClusterReadWriteRoundTrip(t *testing.T) {
	_, _, cl := newTestRing(t, 3, Config{Replicas: 2, PlacementBlocks: 4})
	const span = 16 * block.Size
	wr := make([]byte, span)
	for i := range wr {
		wr[i] = byte(i*7 + 3)
	}
	if err := cl.WriteAt(0, 0, wr, blockAt(32)); err != nil {
		t.Fatal(err)
	}
	rd := make([]byte, span)
	if err := cl.ReadAt(0, 0, rd, blockAt(32)); err != nil {
		t.Fatal(err)
	}
	for i := range wr {
		if rd[i] != wr[i] {
			t.Fatalf("byte %d: got %d want %d", i, rd[i], wr[i])
		}
	}
	st := cl.ClusterStats()
	if st.Writes != 1 || st.Reads != 1 || st.WriteBlocks != 16 || st.ReadBlocks != 16 {
		t.Fatalf("counters off: %+v", st)
	}
}

// With R = 1 and two nodes, a request spanning many placement groups gives
// a node a share with another node's groups in between: the share is
// several extents, and every block must still reach its one owner and read
// back intact.
func TestClusterNonContiguousNodeShare(t *testing.T) {
	_, nodes, cl := newTestRing(t, 2, Config{Replicas: 1, PlacementBlocks: 4})
	const groups, first = 16, 8 // blocks 8..71: groups 2..17
	owners, changes := make([]int, groups), 0
	for g := range owners {
		owners[g] = cl.owners(block.MakeKey(0, 0, first+uint64(4*g)), nil)[0]
		if g > 0 && owners[g] != owners[g-1] {
			changes++
		}
	}
	if changes < 2 {
		t.Fatalf("group owners %v: no node's share has a gap", owners)
	}
	wr := make([]byte, groups*4*block.Size)
	for i := range wr {
		wr[i] = byte(i*13 + 5)
	}
	if err := cl.WriteAt(0, 0, wr, blockAt(first)); err != nil {
		t.Fatal(err)
	}
	rd := make([]byte, len(wr))
	if err := cl.ReadAt(0, 0, rd, blockAt(first)); err != nil {
		t.Fatal(err)
	}
	if string(rd) != string(wr) {
		t.Fatal("round trip over a non-contiguous share returned different bytes")
	}
	for id, n := range nodes {
		want := int64(0)
		for _, o := range owners {
			if o == id {
				want += 4
			}
		}
		if st := n.st.Stats(); st.Writes != want || st.Reads != want {
			t.Errorf("node %d: %d block writes and %d reads, want %d each", id, st.Writes, st.Reads, want)
		}
	}
}

func TestClusterAlignmentRejected(t *testing.T) {
	_, _, cl := newTestRing(t, 2, Config{Replicas: 2})
	buf := make([]byte, block.Size)
	if err := cl.WriteAt(0, 0, buf, 100); !errors.Is(err, ErrAlignment) {
		t.Fatalf("unaligned offset: got %v, want ErrAlignment", err)
	}
	if err := cl.ReadAt(0, 0, buf[:100], 0); !errors.Is(err, ErrAlignment) {
		t.Fatalf("unaligned length: got %v, want ErrAlignment", err)
	}
	if err := cl.ReadAt(0, 0, nil, 0); !errors.Is(err, ErrAlignment) {
		t.Fatalf("empty read: got %v, want ErrAlignment", err)
	}
}

func TestClusterWriteQuorum(t *testing.T) {
	_, nodes, cl := newTestRing(t, 2, Config{Replicas: 2, WriteQuorum: 2, WriteBack: true, PlacementBlocks: 4})
	buf := make([]byte, block.Size)
	fillByte(buf, 1)
	if err := cl.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatalf("healthy W=2 write: %v", err)
	}
	nodes[1].kill()
	fillByte(buf, 2)
	if err := cl.WriteAt(0, 0, buf, 0); !errors.Is(err, ErrWriteQuorum) {
		t.Fatalf("W=2 with a node down: got %v, want ErrWriteQuorum", err)
	}
	if st := cl.ClusterStats(); st.QuorumFailures == 0 || st.Hinted == 0 {
		t.Fatalf("expected quorum failure + hint counters to move: %+v", st)
	}
	// The failed write still reached the surviving replica and the hint
	// queue; after recovery the quorum is available again.
	nodes[1].restart()
	waitNodeState(t, cl, 1, "up", 10*time.Second)
	settle(t, cl, 10*time.Second)
	fillByte(buf, 3)
	if err := cl.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatalf("W=2 write after recovery: %v", err)
	}
}

func TestClusterReadFallthrough(t *testing.T) {
	_, nodes, cl := newTestRing(t, 3, Config{Replicas: 2, PlacementBlocks: 2})
	const blocks = 32
	buf := make([]byte, block.Size)
	for n := uint64(0); n < blocks; n++ {
		fillByte(buf, byte(n+1))
		if err := cl.WriteAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatal(err)
		}
	}
	nodes[2].kill()
	for n := uint64(0); n < blocks; n++ {
		if err := cl.ReadAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatalf("read block %d with a node down: %v", n, err)
		}
		if buf[0] != byte(n+1) {
			t.Fatalf("block %d: got %d want %d", n, buf[0], byte(n+1))
		}
	}
}

func TestClusterFlushMakesEnsembleCurrent(t *testing.T) {
	be, nodes, cl := newTestRing(t, 2, Config{Replicas: 2, WriteBack: true, PlacementBlocks: 4})
	const blocks = 24
	buf := make([]byte, block.Size)
	for n := uint64(0); n < blocks/2; n++ {
		fillByte(buf, byte(n+1))
		if err := cl.WriteAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatal(err)
		}
	}
	nodes[1].kill()
	for n := uint64(blocks / 2); n < blocks; n++ {
		fillByte(buf, byte(n+1))
		if err := cl.WriteAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatal(err)
		}
	}
	nodes[1].restart()
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if st := cl.ClusterStats(); st.DirtyKeys != 0 || st.HintDepth != 0 {
		t.Fatalf("dirty=%d hints=%d after flush, want 0/0", st.DirtyKeys, st.HintDepth)
	}
	// The shared ensemble itself must now hold the newest data.
	for n := uint64(0); n < blocks; n++ {
		if err := be.ReadAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatalf("backend read block %d: %v", n, err)
		}
		if buf[0] != byte(n+1) {
			t.Fatalf("backend block %d: got %d want %d after flush", n, buf[0], byte(n+1))
		}
	}
}

func TestClusterInvalidateDropsStaleCaches(t *testing.T) {
	be, _, cl := newTestRing(t, 2, Config{Replicas: 2, PlacementBlocks: 4})
	buf := make([]byte, block.Size)
	fillByte(buf, 1)
	if err := cl.WriteAt(0, 0, buf, blockAt(9)); err != nil {
		t.Fatal(err)
	}
	// The ensemble changes behind the caches (a different writer path).
	fillByte(buf, 2)
	if err := be.WriteAt(0, 0, buf, blockAt(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Invalidate(0, 0, blockAt(9), block.Size); err != nil {
		t.Fatal(err)
	}
	if err := cl.ReadAt(0, 0, buf, blockAt(9)); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("read %d after invalidate, want the ensemble's 2", buf[0])
	}
}

// Invalidate with an unreachable node records a shed span that keeps
// excluding the stale range there until the heal replays it.
func TestClusterInvalidateUnreachableNodeHealsLater(t *testing.T) {
	be, nodes, cl := newTestRing(t, 2, Config{Replicas: 2, PlacementBlocks: 4})
	buf := make([]byte, block.Size)
	fillByte(buf, 1)
	if err := cl.WriteAt(0, 0, buf, blockAt(5)); err != nil {
		t.Fatal(err)
	}
	nodes[1].kill()
	fillByte(buf, 2)
	if err := be.WriteAt(0, 0, buf, blockAt(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Invalidate(0, 0, blockAt(5), block.Size); err == nil {
		t.Fatal("invalidate with a node down should report the failure")
	}
	// Node 1's stale copy is fenced: every read meanwhile must see 2.
	for i := 0; i < 4; i++ {
		if err := cl.ReadAt(0, 0, buf, blockAt(5)); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 2 {
			t.Fatalf("read %d while fenced, want 2", buf[0])
		}
	}
	nodes[1].restart()
	settle(t, cl, 10*time.Second)
	nodes[0].kill()
	if err := cl.ReadAt(0, 0, buf, blockAt(5)); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("healed node served %d, want 2", buf[0])
	}
}

// Regression: a gateway's Invalidate checked no geometry, so an OpInvalidate
// with in-range ids and an offset past the addressable block range panicked
// in block.MakeKey inside a server worker and took the process down, and an
// unaligned or empty range was accepted. Each now answers an error frame,
// and the connection keeps serving.
func TestGatewayInvalidateRejectsBadGeometry(t *testing.T) {
	_, _, cl := newTestRing(t, 2, Config{Replicas: 2, PlacementBlocks: 4})
	srv := appliance.NewServer(cl)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(l) }()
	defer func() { srv.Close(); <-done }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	// HELLO (op 8) offering version 2; the reply is OK | 2.
	hello := binary.BigEndian.AppendUint16([]byte{'S', 8}, 0)
	hello = binary.BigEndian.AppendUint16(hello, 0)
	hello = binary.BigEndian.AppendUint64(hello, 2)
	hello = binary.BigEndian.AppendUint32(hello, 0)
	var reply [2]byte
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, reply[:]); err != nil || reply != [2]byte{0, 2} {
		t.Fatalf("HELLO reply %v, err %v", reply, err)
	}
	// invalidate sends one tagged OpInvalidate (op 5) and returns the
	// response status and body.
	invalidate := func(tag uint32, off uint64, length uint32) (byte, []byte) {
		t.Helper()
		fr := binary.BigEndian.AppendUint32([]byte{'S', 5}, tag)
		fr = binary.BigEndian.AppendUint16(fr, 0)
		fr = binary.BigEndian.AppendUint16(fr, 0)
		fr = binary.BigEndian.AppendUint64(fr, off)
		fr = binary.BigEndian.AppendUint32(fr, length)
		if _, err := conn.Write(fr); err != nil {
			t.Fatal(err)
		}
		var head [6]byte
		if _, err := io.ReadFull(conn, head[:]); err != nil {
			t.Fatalf("tag %d: no response: %v", tag, err)
		}
		if head[0] != 'R' || binary.BigEndian.Uint32(head[1:5]) != tag {
			t.Fatalf("tag %d: response head % x", tag, head)
		}
		n := 4 // OK: the dropped count
		if head[5] != 0 {
			var l [2]byte
			if _, err := io.ReadFull(conn, l[:]); err != nil {
				t.Fatal(err)
			}
			n = int(binary.BigEndian.Uint16(l[:]))
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(conn, body); err != nil {
			t.Fatal(err)
		}
		return head[5], body
	}
	for i, bad := range []struct {
		off    uint64
		length uint32
	}{
		{(block.MaxBlockNumber + 1) * block.Size, block.Size}, // past the addressable range
		{100, block.Size}, // unaligned offset
		{0, 100},          // unaligned length
		{0, 0},            // empty
	} {
		if status, msg := invalidate(uint32(i+1), bad.off, bad.length); status != 1 {
			t.Errorf("invalidate [%d, +%d): status %d (% x), want an error frame", bad.off, bad.length, status, msg)
		}
	}
	if status, body := invalidate(9, 0, block.Size); status != 0 || len(body) != 4 {
		t.Fatalf("valid invalidate after the rejections: status %d body %q", status, body)
	}
}

func TestClusterStatsAggregates(t *testing.T) {
	_, _, cl := newTestRing(t, 3, Config{Replicas: 2})
	buf := make([]byte, block.Size)
	if err := cl.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.CapacityBlocks == 0 {
		t.Fatalf("aggregated capacity is zero: %+v", st)
	}
	if st.Writes == 0 {
		t.Fatalf("aggregated writes is zero: %+v", st)
	}
}

// TestClusterStatsSumsEveryCounter checks that the gateway's Stats is the
// field-by-field sum of its nodes' for every int64 counter and gauge.
func TestClusterStatsSumsEveryCounter(t *testing.T) {
	_, nodes, cl := newTestRing(t, 2, Config{Replicas: 2})
	buf := make([]byte, 16*block.Size)
	if err := cl.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := make([]byte, 64*block.Size)
			for i := 0; i < 8; i++ {
				if err := cl.ReadAt(0, 0, p, blockAt(uint64(64*i))); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	var want core.Stats
	for _, n := range nodes {
		want.Add(n.st.Stats())
	}
	got := reflect.ValueOf(cl.Stats())
	for i, w := 0, reflect.ValueOf(want); i < w.NumField(); i++ {
		if f := w.Field(i); f.Kind() == reflect.Int64 && got.Field(i).Int() != f.Int() {
			t.Errorf("gateway %s = %d, nodes sum to %d", w.Type().Field(i).Name, got.Field(i).Int(), f.Int())
		}
	}
	if want.Reads == 0 || want.BackendBytesRead == 0 {
		t.Fatalf("no traffic reached the nodes: %+v", want)
	}
}

func TestClusterObservabilityEndpoints(t *testing.T) {
	_, _, cl := newTestRing(t, 2, Config{Replicas: 2, WriteBack: true})
	buf := make([]byte, block.Size)
	if err := cl.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cl.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"sievestore_cluster_reads 1",
		"sievestore_cluster_writes 1",
		"sievestore_cluster_ring_size 2",
		"sievestore_cluster_nodes_up 2",
		"sievestore_cluster_node_0_up 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Cluster ClusterStats `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatalf("statusz decode: %v", err)
	}
	resp.Body.Close()
	if status.Cluster.RingSize != 2 || len(status.Cluster.Nodes) != 2 {
		t.Fatalf("statusz topology wrong: %+v", status.Cluster)
	}
	if status.Cluster.Nodes[0].State != "up" {
		t.Fatalf("statusz node state: %+v", status.Cluster.Nodes[0])
	}
}

// TestMetricsSeriesPinned pins the gateway's /metrics surface, as the
// appliance's test of that name pins the node's: it renders a two-node
// ring's registration and compares the sorted "# TYPE" lines with
// testdata/metrics_series.txt. A change that adds, removes or renames a
// series has to edit that file, so the change shows in its diff.
func TestMetricsSeriesPinned(t *testing.T) {
	_, _, cl := newTestRing(t, 2, Config{Replicas: 2, WriteBack: true})
	srv := httptest.NewServer(cl.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var got []string
	for _, l := range strings.Split(string(body), "\n") {
		if name, ok := strings.CutPrefix(l, "# TYPE "); ok {
			got = append(got, name)
		}
	}
	slices.Sort(got)
	raw, err := os.ReadFile("testdata/metrics_series.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if !slices.Equal(got, want) {
		t.Errorf("/metrics series differ from testdata/metrics_series.txt; got:\n%s", strings.Join(got, "\n"))
	}
}

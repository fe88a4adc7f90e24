// Cluster observability: a structured snapshot of ring topology and
// per-node health for /statusz, and sievestore_cluster_* counters for
// /metrics.
package cluster

import (
	"net/http"
	"strconv"

	"repro/internal/appliance"
	"repro/internal/metrics"
	"repro/internal/resilience"
)

// NodeStatus is one ring member's health in a ClusterStats snapshot.
type NodeStatus struct {
	ID      int    `json:"id"`
	Addr    string `json:"addr"`
	State   string `json:"state"`
	Healing bool   `json:"healing"`

	BreakerOpen bool                          `json:"breaker_open"`
	Trips       int64                         `json:"breaker_trips"`
	Transitions resilience.BreakerTransitions `json:"breaker_transitions"`

	HintDepth int   `json:"hint_depth"`
	ShedSpans int   `json:"shed_spans"`
	Sheds     int64 `json:"sheds"`
	Downs     int64 `json:"downs"`
	Ups       int64 `json:"ups"`
	Drains    int64 `json:"drains"`
}

// ClusterStats is a point-in-time snapshot of the whole ring.
type ClusterStats struct {
	RingSize    int  `json:"ring_size"`
	Replicas    int  `json:"replicas"`
	WriteQuorum int  `json:"write_quorum"`
	WriteBack   bool `json:"write_back"`

	Reads          int64 `json:"reads"`
	Writes         int64 `json:"writes"`
	ReadBlocks     int64 `json:"read_blocks"`
	WriteBlocks    int64 `json:"write_blocks"`
	Fallthroughs   int64 `json:"fallthroughs"`
	QuorumFailures int64 `json:"quorum_failures"`
	Hinted         int64 `json:"hinted"`
	Drained        int64 `json:"drained"`
	Rebalanced     int64 `json:"rebalanced"`
	Probes         int64 `json:"probes"`

	// DirtyKeys is the write-back dirty-tracking population;
	// UnderReplicated counts dirty keys not yet acked by every owner
	// (the replication sweep's backlog — 0 when fully settled).
	DirtyKeys       int `json:"dirty_keys"`
	UnderReplicated int `json:"under_replicated"`
	HintDepth       int `json:"hint_depth"` // total across nodes

	Nodes []NodeStatus `json:"nodes"`
}

// ClusterStats snapshots the ring. The under-replication scan takes the
// stripe locks briefly; it is meant for scrapes and test settling, not
// hot paths.
func (c *Client) ClusterStats() ClusterStats {
	st := ClusterStats{
		RingSize:       len(c.nodes),
		Replicas:       c.cfg.Replicas,
		WriteQuorum:    c.cfg.WriteQuorum,
		WriteBack:      c.cfg.WriteBack,
		Reads:          c.reads.Load(),
		Writes:         c.writes.Load(),
		ReadBlocks:     c.readBlocks.Load(),
		WriteBlocks:    c.writeBlocks.Load(),
		Fallthroughs:   c.fallthroughs.Load(),
		QuorumFailures: c.quorumFailures.Load(),
		Hinted:         c.hinted.Load(),
		Drained:        c.drained.Load(),
		Rebalanced:     c.rebalanced.Load(),
		Probes:         c.probes.Load(),
	}
	var owners []int
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		st.DirtyKeys += len(s.dirty)
		for k, e := range s.dirty {
			owners = c.owners(k, owners)
			for _, id := range owners {
				if e.acked&(1<<uint(id)) == 0 {
					st.UnderReplicated++
					break
				}
			}
		}
		s.mu.Unlock()
	}
	for _, n := range c.nodes {
		n.mu.Lock()
		ns := NodeStatus{
			ID:        n.id,
			Addr:      n.addr,
			State:     stateName(n.state),
			Healing:   n.healing,
			HintDepth: len(n.hints),
			ShedSpans: len(n.shedSpans),
			Sheds:     n.sheds,
			Downs:     n.downs,
			Ups:       n.ups,
			Drains:    n.drains,
		}
		n.mu.Unlock()
		ns.BreakerOpen = n.br.Open()
		ns.Trips = n.br.Trips()
		ns.Transitions = n.br.Transitions()
		st.HintDepth += ns.HintDepth
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// NodesUp counts the ring members in state up.
func (s ClusterStats) NodesUp() int {
	up := 0
	for _, n := range s.Nodes {
		if n.State == "up" {
			up++
		}
	}
	return up
}

// Register publishes the cluster counters into a metrics registry under
// sievestore.cluster.* (rendered sievestore_cluster_* in Prometheus
// exposition). Per-node series carry the node id in the name — the
// registry has no labels.
func (c *Client) Register(r *metrics.Registry) {
	cnt := func(name string, f func(ClusterStats) int64) {
		r.Counter("sievestore.cluster."+name, func() int64 { return f(c.clusterSnap()) })
	}
	gauge := func(name string, f func(ClusterStats) float64) {
		r.Gauge("sievestore.cluster."+name, func() float64 { return f(c.clusterSnap()) })
	}
	r.OnCollect(c.refreshSnap)
	cnt("reads", func(s ClusterStats) int64 { return s.Reads })
	cnt("writes", func(s ClusterStats) int64 { return s.Writes })
	cnt("read_blocks", func(s ClusterStats) int64 { return s.ReadBlocks })
	cnt("write_blocks", func(s ClusterStats) int64 { return s.WriteBlocks })
	cnt("fallthroughs", func(s ClusterStats) int64 { return s.Fallthroughs })
	cnt("quorum_failures", func(s ClusterStats) int64 { return s.QuorumFailures })
	cnt("hinted", func(s ClusterStats) int64 { return s.Hinted })
	cnt("drained", func(s ClusterStats) int64 { return s.Drained })
	cnt("rebalanced", func(s ClusterStats) int64 { return s.Rebalanced })
	cnt("probes", func(s ClusterStats) int64 { return s.Probes })
	gauge("ring_size", func(s ClusterStats) float64 { return float64(s.RingSize) })
	gauge("replicas", func(s ClusterStats) float64 { return float64(s.Replicas) })
	gauge("write_quorum", func(s ClusterStats) float64 { return float64(s.WriteQuorum) })
	gauge("dirty_keys", func(s ClusterStats) float64 { return float64(s.DirtyKeys) })
	gauge("under_replicated", func(s ClusterStats) float64 { return float64(s.UnderReplicated) })
	gauge("hint_depth", func(s ClusterStats) float64 { return float64(s.HintDepth) })
	gauge("nodes_up", func(s ClusterStats) float64 { return float64(s.NodesUp()) })
	for id := range c.nodes {
		id := id
		nodeSnap := func() NodeStatus {
			s := c.clusterSnap()
			if id < len(s.Nodes) {
				return s.Nodes[id]
			}
			return NodeStatus{}
		}
		pre := "node_" + strconv.Itoa(id)
		gauge(pre+".up", func(ClusterStats) float64 {
			if nodeSnap().State == "up" {
				return 1
			}
			return 0
		})
		gauge(pre+".hint_depth", func(ClusterStats) float64 { return float64(nodeSnap().HintDepth) })
		cnt(pre+".sheds", func(ClusterStats) int64 { return nodeSnap().Sheds })
		cnt(pre+".downs", func(ClusterStats) int64 { return nodeSnap().Downs })
		cnt(pre+".drains", func(ClusterStats) int64 { return nodeSnap().Drains })
		cnt(pre+".breaker_trips", func(ClusterStats) int64 { return nodeSnap().Trips })
	}
}

// refreshSnap recomputes the snapshot once per registry collection, so
// one scrape costs one stripe scan however many metrics read from it.
func (c *Client) refreshSnap() {
	s := c.ClusterStats()
	c.snapMu.Lock()
	c.snap = s
	c.snapMu.Unlock()
}

func (c *Client) clusterSnap() ClusterStats {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	return c.snap
}

// Handler serves the cluster's own observability endpoints — /metrics
// (Prometheus text) and /statusz (JSON topology + counters) — for
// gateway deployments where the Client, not a local store, is the data
// path.
func (c *Client) Handler() http.Handler {
	reg := metrics.NewRegistry()
	c.Register(reg)
	return appliance.MetricsMux(reg, func() map[string]any {
		return map[string]any{"cluster": c.ClusterStats()}
	})
}

package provenance

import (
	"fmt"
	"testing"
)

// shardBenchSizes are the trace sizes (records: nodes plus edges) the
// trace-shard benchmarks run at: the 5–20-record traces the end-to-end
// benchmark's workloads hold, and two guards for long-running processes.
var shardBenchSizes = []int{10, 100, 2000}

var (
	benchNodeTypes = []string{"person", "submission", "jobRequisition", "approvalStatus"}
	benchEdgeTypes = []string{"actor", "generates", "nextTask"}
)

// benchTrace builds a working graph holding one trace of size records, half
// of them nodes, and returns it with the trace's node IDs.
func benchTrace(b *testing.B, size int) (*Graph, []string) {
	b.Helper()
	g := NewGraph()
	nNodes := size / 2
	ids := make([]string, nNodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("App-n%05d", i)
		if err := g.AddNode(node(ids[i], "App", ClassData, benchNodeTypes[i%len(benchNodeTypes)], nil)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < size-nNodes; i++ {
		src, dst := ids[i%nNodes], ids[(i*7+1)%nNodes]
		if src == dst {
			dst = ids[(i+1)%nNodes]
		}
		e := edge(fmt.Sprintf("App-e%05d", i), "App", benchEdgeTypes[i%len(benchEdgeTypes)], src, dst)
		if err := g.AddEdge(e); err != nil {
			b.Fatal(err)
		}
	}
	return g, ids
}

// BenchmarkTraceShardCommit measures what one commit costs the trace it
// lands on while snapshots are being published: Snapshot freezes the
// shard, so the AddNode that follows copies it before inserting. The trace
// is rebuilt (off the clock) whenever it has grown by a tenth.
func BenchmarkTraceShardCommit(b *testing.B) {
	for _, size := range shardBenchSizes {
		b.Run(fmt.Sprintf("records=%d", size), func(b *testing.B) {
			grow := max(1, size/10)
			var g *Graph
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%grow == 0 {
					b.StopTimer()
					g, _ = benchTrace(b, size)
					b.StartTimer()
				}
				_ = g.Snapshot()
				if err := g.AddNode(node(fmt.Sprintf("App-x%08d", i), "App", ClassTask, "submission", nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceShardRead measures the reads a control evaluation makes on
// a snapshot: a node by ID, a node's typed edges in both directions and a
// trace's nodes of one type.
func BenchmarkTraceShardRead(b *testing.B) {
	for _, size := range shardBenchSizes {
		b.Run(fmt.Sprintf("records=%d", size), func(b *testing.B) {
			g, ids := benchTrace(b, size)
			snap := g.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i%len(ids)]
				if snap.Node(id) == nil {
					b.Fatal("node missing")
				}
				_ = snap.Edges(id, Both, benchEdgeTypes[i%len(benchEdgeTypes)])
				if len(snap.NodesByType("App", benchNodeTypes[i%len(benchNodeTypes)])) == 0 {
					b.Fatal("no nodes of type")
				}
			}
		})
	}
}

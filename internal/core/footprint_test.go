package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestGatewayFootprint guards what a System keeps for its ingest gateway
// before any event arrives: its queue holds the batches it admitted, not
// a slot per event of capacity (4 × 4,096 of them by default). A durable
// System with the gateway must retain less than 64 KiB more heap than the
// same System built without one.
func TestGatewayFootprint(t *testing.T) {
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	// live is the heap after two collections: the second empties what the
	// first left in sync.Pool victim caches.
	live := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	// retained is the heap still live after building a System, the least
	// of three tries, so a collection of another test's garbage between
	// the readings cannot make the System look bigger than it is.
	retained := func(noGateway bool) int64 {
		best := int64(-1)
		for i := 0; i < 3; i++ {
			before := live()
			sys, err := core.New(d, core.Config{Dir: t.TempDir(), DisableAsyncIngest: noGateway})
			if err != nil {
				t.Fatal(err)
			}
			if n := live() - before; best < 0 || n < best {
				best = n
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return best
	}
	with, without := retained(false), retained(true)
	if extra := with - without; extra >= 64<<10 {
		t.Fatalf("a System with the gateway retains %d KiB more than one without (%d vs %d KiB), want < 64 KiB", extra>>10, with>>10, without>>10)
	}
	t.Logf("with the gateway %d KiB, without %d KiB", with>>10, without>>10)
}

//go:build go1.24

package selector

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestSelectionKeepsNoBlockAlive checks that selecting on a block leaves
// nothing behind that keeps the block reachable: every workload build
// makes new blocks, and a long-running daemon evicts old workloads, so a
// per-block table held anywhere but in the block would pin each build
// forever.
func TestSelectionKeepsNoBlockAlive(t *testing.T) {
	const seed, blocks = 5, 40
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewPCG(seed, seed))
	var freed atomic.Int32
	for i := 0; i < blocks; i++ {
		b := randomBlock(rng, fmt.Sprintf("b%d", i), 3, 3, 3, 8)
		if _, err := Greedy(randomRequest(rng, b, 3)); err != nil {
			t.Fatal(err)
		}
		if _, err := Optimal(randomRequest(rng, b, 3)); err != nil {
			t.Fatal(err)
		}
		runtime.AddCleanup(b, func(int) { freed.Add(1) }, i)
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < blocks && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := freed.Load(); n < blocks {
		t.Fatalf("%d of %d blocks were collected after selection; the rest are still reachable", n, blocks)
	}
}

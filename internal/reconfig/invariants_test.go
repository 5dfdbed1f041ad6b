package reconfig

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mrts/internal/arch"
	"mrts/internal/ise"
)

// TestControllerInvariantsUnderRandomOps drives the controller with random
// operation sequences (requests, commits, monoCG acquisitions, releases,
// reservations, time advances) and checks the fabric invariants after
// every step:
//
//   - occupancy never exceeds the budget (free counters never negative);
//   - a pinned data path of the current selection is never evicted;
//   - ready times never precede the request time;
//   - IsConfigured implies a recorded ready time in the past;
//   - NextReady(now) is exact: no data path or monoCG slot becomes ready
//     in (now, NextReady(now)), and the answer is one of their ready times
//     after now, or Forever when none lies after now.
//
// The operation sequences come from a fixed seed, logged on failure, so a
// failure replays.
func TestControllerInvariantsUnderRandomOps(t *testing.T) {
	const seed = 20111
	type op struct {
		Kind uint8
		A, B uint8
	}
	mkDP := func(i int) ise.DataPath {
		if i%2 == 0 {
			return ise.DataPath{ID: ise.DataPathID(fmt.Sprintf("fg%d", i)), Kind: arch.FG, PRCs: 1}
		}
		return ise.DataPath{ID: ise.DataPathID(fmt.Sprintf("cg%d", i)), Kind: arch.CG, CGs: 1}
	}
	mono := &ise.Kernel{
		ID: "mk", RISCLatency: 100,
		MonoCG: ise.MonoCGExt{Latency: 50, Instructions: 8},
	}

	var settled, pending int
	f := func(ops []op) bool {
		c, err := NewController(arch.Config{NPRC: 3, NCG: 3})
		if err != nil {
			return false
		}
		now := arch.Cycles(0)
		var currentSelection []*ise.ISE
		for _, o := range ops {
			now += arch.Cycles(o.B) * 1000
			switch o.Kind % 5 {
			case 0: // request a single data path
				d := mkDP(int(o.A) % 8)
				_, existed := c.ReadyTime(d.ID)
				ready, err := c.Request(d, now)
				// A *newly scheduled* reconfiguration cannot complete
				// before it was requested; re-requests of present
				// paths legitimately return past ready times.
				if err == nil && !existed && ready < now {
					t.Logf("ready %d before request time %d", ready, now)
					return false
				}
			case 1: // commit a selection of 1-2 small ISEs
				n := int(o.A)%2 + 1
				var sel []*ise.ISE
				for i := 0; i < n; i++ {
					d := mkDP((int(o.A) + i) % 8)
					sel = append(sel, &ise.ISE{
						ID: fmt.Sprintf("e%d_%d", o.A, i), Kernel: ise.KernelID(fmt.Sprintf("k%d", i)),
						DataPaths: []ise.DataPath{d},
						Latencies: []arch.Cycles{10},
					})
				}
				if _, err := c.CommitSelection(sel, now); err != nil {
					return false // selections of <= 2 units always fit 3/3
				}
				currentSelection = sel
			case 2: // monoCG
				c.AcquireMonoCG(mono, now)
			case 3:
				c.ReleaseMonoCG(mono.ID)
			case 4: // reservation (may legitimately fail)
				_ = c.Reserve(int(o.A)%2, int(o.B)%2)
			}

			// Invariants.
			if c.FreePRC() < 0 || c.FreeCG() < 0 {
				t.Logf("negative free capacity: %d/%d", c.FreePRC(), c.FreeCG())
				return false
			}
			for _, e := range currentSelection {
				for _, d := range e.DataPaths {
					if _, ok := c.ReadyTime(d.ID); !ok {
						t.Logf("pinned data path %s evicted", d.ID)
						return false
					}
				}
			}
			for _, id := range c.ConfiguredPaths() {
				ready, ok := c.ReadyTime(id)
				if !ok || ready > c.Now() {
					t.Logf("configured path %s with future ready time", id)
					return false
				}
			}
			var readies []arch.Cycles
			for i := 0; i < 8; i++ {
				if ready, ok := c.ReadyTime(mkDP(i).ID); ok {
					readies = append(readies, ready)
				}
			}
			if ready, ok := c.MonoCGReady(mono.ID); ok {
				readies = append(readies, ready)
			}
			next, want := c.NextReady(now), Forever
			for _, r := range readies {
				if r > now && r < want {
					want = r
				}
			}
			if next != want {
				t.Logf("NextReady(%d) = %d, want %d (ready times %v)", now, next, want, readies)
				return false
			}
			if next == Forever {
				settled++
			} else {
				pending++
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
	if settled == 0 || pending == 0 {
		t.Errorf("seed %d: NextReady answered Forever %d times and a ready time %d times; both cases must run", seed, settled, pending)
	}
}

// TestPortMonotonicity verifies that FG reconfigurations scheduled later
// never complete earlier (the serial configuration port preserves order).
func TestPortMonotonicity(t *testing.T) {
	c, err := NewController(arch.Config{NPRC: 8, NCG: 0})
	if err != nil {
		t.Fatal(err)
	}
	var last arch.Cycles
	for i := 0; i < 8; i++ {
		d := ise.DataPath{ID: ise.DataPathID(fmt.Sprintf("d%d", i)), Kind: arch.FG, PRCs: 1}
		ready, err := c.Request(d, arch.Cycles(i)*100)
		if err != nil {
			t.Fatal(err)
		}
		if ready <= last {
			t.Fatalf("reconfiguration %d completes at %d, before predecessor %d", i, ready, last)
		}
		last = ready
	}
}

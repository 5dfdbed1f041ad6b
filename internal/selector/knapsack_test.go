package selector

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKnapsackEmpty(t *testing.T) {
	picks, total := MultiChoiceKnapsack(nil, 3, 3)
	if len(picks) != 0 || total != 0 {
		t.Errorf("empty knapsack = %v, %v", picks, total)
	}
}

func TestKnapsackSingleGroup(t *testing.T) {
	groups := [][]Option{{
		{Label: "a", PRC: 1, Profit: 10},
		{Label: "b", PRC: 2, Profit: 15},
		{Label: "c", CG: 1, Profit: 12},
	}}
	picks, total := MultiChoiceKnapsack(groups, 2, 0)
	if picks[0] != 1 || total != 15 {
		t.Errorf("picks=%v total=%v, want option b / 15", picks, total)
	}
	picks, total = MultiChoiceKnapsack(groups, 1, 1)
	// 1 PRC + 1 CG: best single option is c (12) or a (10): only one
	// option per group, so c.
	if picks[0] != 2 || total != 12 {
		t.Errorf("picks=%v total=%v, want option c / 12", picks, total)
	}
}

func TestKnapsackSkipsUnprofitable(t *testing.T) {
	groups := [][]Option{{
		{Label: "bad", PRC: 1, Profit: 0},
	}}
	picks, total := MultiChoiceKnapsack(groups, 4, 4)
	if picks[0] != -1 || total != 0 {
		t.Errorf("zero-profit option selected: %v %v", picks, total)
	}
}

func TestKnapsackTwoDimensions(t *testing.T) {
	groups := [][]Option{
		{{Label: "a1", PRC: 1, CG: 1, Profit: 10}},
		{{Label: "b1", PRC: 1, Profit: 6}, {Label: "b2", CG: 1, Profit: 7}},
	}
	// Budget 1/1: either a1 alone (10) or b1+? a1 takes both dims, so
	// a1 (10) vs b1 (6) vs b2 (7): a1 wins.
	picks, total := MultiChoiceKnapsack(groups, 1, 1)
	if total != 10 || picks[0] != 0 || picks[1] != -1 {
		t.Errorf("picks=%v total=%v", picks, total)
	}
	// Budget 2/1: a1 + b1 = 16.
	picks, total = MultiChoiceKnapsack(groups, 2, 1)
	if total != 16 || picks[0] != 0 || picks[1] != 0 {
		t.Errorf("picks=%v total=%v, want a1+b1=16", picks, total)
	}
}

func TestKnapsackReconstructionConsistent(t *testing.T) {
	groups := [][]Option{
		{{Label: "x", PRC: 2, Profit: 9}, {Label: "y", PRC: 1, Profit: 5}},
		{{Label: "z", PRC: 1, Profit: 5}},
		{{Label: "w", PRC: 1, CG: 1, Profit: 4}},
	}
	picks, total := MultiChoiceKnapsack(groups, 2, 1)
	sum := 0.0
	prc, cg := 0, 0
	for g, pi := range picks {
		if pi < 0 {
			continue
		}
		o := groups[g][pi]
		sum += o.Profit
		prc += o.PRC
		cg += o.CG
	}
	if sum != total {
		t.Errorf("reconstructed profit %v != reported %v", sum, total)
	}
	if prc > 2 || cg > 1 {
		t.Errorf("reconstruction over budget: %d/%d", prc, cg)
	}
	if total != 10 { // y + z = 10 beats x = 9
		t.Errorf("total = %v, want 10", total)
	}
}

// Property: the DP matches brute-force enumeration on random small
// instances, and its reconstruction is always feasible and adds up.
func TestKnapsackMatchesBruteForce(t *testing.T) {
	f := func(seed uint32) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*1664525 + 1013904223
			return int(rng>>16) % n
		}
		groups := make([][]Option, next(4)+1)
		for g := range groups {
			for o := 0; o < next(3)+1; o++ {
				groups[g] = append(groups[g], Option{
					PRC:    next(3),
					CG:     next(3),
					Profit: float64(next(20)),
				})
			}
		}
		maxPRC, maxCG := next(4), next(4)
		picks, total := MultiChoiceKnapsack(groups, maxPRC, maxCG)

		// Reconstruction feasible and consistent.
		sum := 0.0
		prc, cg := 0, 0
		for g, pi := range picks {
			if pi < 0 {
				continue
			}
			o := groups[g][pi]
			sum += o.Profit
			prc += o.PRC
			cg += o.CG
		}
		if prc > maxPRC || cg > maxCG || sum != total {
			return false
		}

		// Brute force.
		best := 0.0
		var walk func(g int, prc, cg int, acc float64)
		walk = func(g, prc, cg int, acc float64) {
			if g == len(groups) {
				if acc > best {
					best = acc
				}
				return
			}
			walk(g+1, prc, cg, acc)
			for _, o := range groups[g] {
				if o.Profit <= 0 {
					continue
				}
				if prc+o.PRC <= maxPRC && cg+o.CG <= maxCG {
					walk(g+1, prc+o.PRC, cg+o.CG, acc+o.Profit)
				}
			}
		}
		walk(0, 0, 0, 0)
		return total == best
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

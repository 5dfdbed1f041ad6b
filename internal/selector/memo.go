package selector

// Memo is an inert placeholder for the deleted cross-point selection
// memo: every selection now runs Greedy directly.
//
// Deprecated: Memo exists only because perfbench names it; ROADMAP item
// 2's benchmark change deletes it.
type Memo struct{}

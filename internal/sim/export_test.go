package sim

// Walked returns how many executions the stepper has replayed one by one
// rather than in a closed-form window.
func (s *Stepper) Walked() int64 { return s.walked }

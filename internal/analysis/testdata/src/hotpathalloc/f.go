package hotpathalloc

// userJob and driver mirror the scheduler's per-user driver loop: a
// worker that owns one job and reuses it for every user.
type userJob struct{ bits []uint8 }

type driver struct{ job userJob }

// process is a //ltephy:hotpath seed. A pointer to fresh storage is a
// heap allocation per call once it escapes, so both spellings are
// flagged; the worker's own job is clean.
//
//ltephy:hotpath — runs once per user.
func (d *driver) process() *userJob {
	fresh := &userJob{} // want "heap-allocates once the pointer escapes"
	_ = fresh
	p := new(userJob) // want "heap-allocates once the pointer escapes"
	_ = p
	ok := &userJob{} //ltephy:alloc-ok — sanctioned
	_ = ok
	return &d.job
}

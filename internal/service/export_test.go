package service

// MaxFinishedRecords exposes maxFinishedRecords to the external tests.
const MaxFinishedRecords = maxFinishedRecords

// HeldRecords reports the job and batch records s holds in memory: live
// ones (unfinished jobs and batches) and recently finished ones.
func HeldRecords(s *Server) (live, finished int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs) + len(s.batches), s.finished.Len()
}

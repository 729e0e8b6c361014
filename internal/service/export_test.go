package service

// MaxFinishedHubs exposes maxFinishedHubs to the external tests.
const MaxFinishedHubs = maxFinishedHubs

// HeldHubs reports the event hubs s holds: live ones (unfinished jobs
// and batches) and those of recently finished ones.
func HeldHubs(s *Server) (live, finished int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.hubs), s.doneHubs.Len()
}

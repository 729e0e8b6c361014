package service

// MaxFinishedHubs exposes maxFinishedHubs to the external tests.
const MaxFinishedHubs = maxFinishedHubs

// HeldHubs reports the event hubs s holds: live ones (queued and
// running jobs) and those of recently finished jobs.
func HeldHubs(s *Server) (live, finished int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.hubs), s.doneHubs.Len()
}

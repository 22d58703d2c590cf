package wire

// ActiveConns returns how many client connections the server currently
// holds.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// InFlight returns how many requests the server is executing right now.
func (s *Server) InFlight() int64 { return s.inFlight.Load() }

package server

// Deregister drops a query this connection registered.
func (c *Client) Deregister(name string) error {
	_, err := c.rpc(&Frame{Type: TypeDeregister, Query: name})
	return err
}

// NumQueries returns the number of live registered queries.
func (s *Server) NumQueries() int { return s.multi.NumQueries() }

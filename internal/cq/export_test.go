package cq

import "serena/internal/query"

// Register is RegisterWith with no ON ERROR, INTO or RETAIN clause.
func (e *Executor) Register(name string, plan query.Node) (*Query, error) {
	return e.RegisterWith(name, plan, RegisterOptions{})
}

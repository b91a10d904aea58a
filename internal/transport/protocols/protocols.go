// Package protocols wires every ANT transport protocol implementation into
// a transport.Registry. It exists so that registration is explicit (no
// init-time side effects) while callers still get the full protocol suite
// from one call.
package protocols

import (
	"fmt"

	"adamant/internal/transport"
	"adamant/internal/transport/bemcast"
	"adamant/internal/transport/fountcast"
	"adamant/internal/transport/nakcast"
	"adamant/internal/transport/ricochet"
)

// NewRegistry returns a registry with every built-in protocol registered:
// ricochet, nakcast, bemcast and fountcast.
func NewRegistry() (*transport.Registry, error) {
	reg := transport.NewRegistry()
	for _, f := range []*transport.Factory{
		ricochet.Factory(),
		nakcast.Factory(),
		bemcast.Factory(),
		fountcast.Factory(),
	} {
		if err := reg.Register(f); err != nil {
			return nil, fmt.Errorf("protocols: %w", err)
		}
	}
	return reg, nil
}

// MustRegistry is NewRegistry for program setup paths where failure is a
// programming error (duplicate registration cannot happen with the fixed
// built-in set).
func MustRegistry() *transport.Registry {
	reg, err := NewRegistry()
	if err != nil {
		panic(err)
	}
	return reg
}

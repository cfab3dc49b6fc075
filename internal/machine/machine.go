// Package machine exists only for bench/, whose tenant_pressure
// workload still calls it: it is a shim over vm.Host, which is the
// multi-tenant machine (tenant table, eviction, teardown), and it is
// deleted once bench/ drives vm.Host directly. Nothing else may import
// it; scripts/gates' lint group enforces that.
package machine

import (
	"bonsai/internal/physmem"
	"bonsai/internal/vm"
)

// Config parameterizes a multi-tenant machine.
type Config struct {
	// VM is the per-tenant address-space configuration; the machine's
	// shared geometry (Frames, CPUs, MaxFamily) is read from it too.
	VM vm.Config
	// MaxTenants bounds concurrent tenants (<= 0 = vm.DefaultMaxTenants).
	MaxTenants int
}

// Machine is a vm.Host.
type Machine struct {
	host *vm.Host
}

// Tenant is a handle on one admitted tenant's root address space.
type Tenant struct {
	root *vm.AddressSpace
}

// New builds an empty machine (vm.NewHost).
func New(cfg Config) *Machine {
	return &Machine{host: vm.NewHost(cfg.VM, cfg.MaxTenants)}
}

// Admit admits a tenant under a frame limit (vm.Host.Admit).
func (m *Machine) Admit(name string, limitFrames int64) (*Tenant, error) {
	root, err := m.host.Admit(name, limitFrames)
	if err != nil {
		return nil, err
	}
	return &Tenant{root: root}, nil
}

// Root returns the tenant's root address space.
func (t *Tenant) Root() *vm.AddressSpace { return t.root }

// Account returns the tenant's charge account (nil when unlimited).
func (t *Tenant) Account() *physmem.Account { return t.root.Account() }

// Close evicts every live tenant, then closes the host; the first
// eviction error, or else the host's frame-leak check error, is
// returned.
func (m *Machine) Close() error {
	var firstErr error
	for _, root := range m.host.Tenants().Live {
		if err := m.host.Evict(root); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := m.host.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

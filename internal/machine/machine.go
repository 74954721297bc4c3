// Package machine models the parallel machine on which query plans execute.
//
// The paper ("Query Optimization for Parallel Execution", SIGMOD 1992)
// abstracts the machine as a set of preemptable (time-sliceable) resources:
// CPUs, disks and network links. Resource usage of a plan fragment is a pair
// (t, w) per resource — t is the time after which the resource is freed, w is
// the effective busy time — under a uniformity assumption, which yields the
// "property of stretching": a usage (t, w) can be rescheduled as (m·t, w) for
// any m > 1 (§5.2.1).
//
// The machine also fixes the resource universe: the dimensionality l of the
// resource vectors used both by the cost calculus (package cost) and by the
// partial-order pruning metrics (package search). Section 6.3 of the paper
// advises keeping l small by aggregating resources that track each other
// (e.g. a RAID group is one logical disk resource); Config.AggregateDisks
// implements exactly that ablation.
package machine

import (
	"fmt"
	"slices"
	"strings"
)

// Kind classifies a resource. The paper treats all preemptable resources
// uniformly; the kind matters only for cost attribution (CPU work vs I/O
// work vs transfer work) and reporting.
type Kind int

const (
	// CPU is a processor. Cloned (intra-operator parallel) work is spread
	// over several CPU resources.
	CPU Kind = iota
	// Disk holds base relations and indexes; sequential and index I/O work
	// is charged to the disk that stores the accessed object.
	Disk
	// Network carries redistributed (repartitioned) intermediate results.
	Network
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case Disk:
		return "disk"
	case Network:
		return "network"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ResourceID indexes a resource within a Machine. IDs are dense: they are
// valid positions into resource vectors of length Machine.NumResources().
type ResourceID int

// Resource describes one preemptable resource of the machine.
type Resource struct {
	ID   ResourceID
	Kind Kind
	// Name is unique within the machine, e.g. "cpu0" or "n1.disk0".
	Name string
	// Speed scales work: a demand of w abstract units occupies the resource
	// for w/Speed time units. Speed 1 is the reference resource. For network
	// links the speed is the link bandwidth in reference units.
	Speed float64
	// Latency is the fixed startup latency of using the resource, charged
	// once per transfer; nonzero only for network links of multi-node
	// machines (Config.NetLatency).
	Latency float64
	// Node is the shared-nothing node the resource belongs to; 0 on
	// single-node machines. An aggregated interconnect (AggregateLinks)
	// belongs to node 0 by convention.
	Node int
}

// Config describes a machine to build. The zero value is not useful; use
// DefaultConfig or fill in the counts.
type Config struct {
	// CPUs is the number of processors (≥ 1).
	CPUs int
	// Disks is the number of independent disks (≥ 1).
	Disks int
	// Networks is the number of network links (usually 0 or 1).
	Networks int
	// CPUSpeed, DiskSpeed, NetSpeed scale the respective resources.
	// Zero means 1.0.
	CPUSpeed, DiskSpeed, NetSpeed float64
	// AggregateDisks, when true, models all disks as a single logical
	// resource (the XPRS/RAID aggregation advice of §6.3). The machine still
	// reports the physical disk count via PhysicalDisks, and the aggregate
	// resource has Speed multiplied by that count. On a multi-node machine
	// aggregation is per node (each node's disks become one RAID resource).
	AggregateDisks bool

	// Nodes is the number of shared-nothing nodes (Gamma-style). 0 or 1
	// builds the classic single shared-everything node; above 1, CPUs and
	// Disks are per-node counts, and each node gets one interconnect port (a
	// network link of speed NetSpeed) regardless of Networks. Data moving
	// between nodes crosses these links; data staying on a node does not.
	Nodes int
	// NetLatency is the fixed startup latency charged once per cross-node
	// transfer on a link (abstract time units). Only meaningful with
	// Nodes > 1.
	NetLatency float64
	// AggregateLinks, when true on a multi-node machine, models the whole
	// interconnect as a single logical resource of speed NetSpeed × Nodes —
	// the §6.3 dimensionality-reduction advice applied to the network, so l
	// does not grow linearly in the node count.
	AggregateLinks bool
}

// DefaultConfig is a small shared-everything node: 4 CPUs, 4 disks, 1 net.
func DefaultConfig() Config {
	return Config{CPUs: 4, Disks: 4, Networks: 1}
}

// Machine is an immutable description of the parallel machine.
type Machine struct {
	resources []Resource
	cpus      []ResourceID
	disks     []ResourceID
	nets      []ResourceID
	// cpuRR and diskRR are the round-robin allocation orders used by CPUFor
	// and DiskFor (cpuRR twice over, for CPUWindow). On a single node they
	// follow cpus/disks; on a multi-node machine they interleave across nodes
	// so consecutive indices land on different nodes first (clone sets span
	// nodes, declustered relations spread Gamma-style).
	cpuRR  []ResourceID
	diskRR []ResourceID
	// nodeLinks[k] is node k's interconnect port; with AggregateLinks every
	// entry is the single logical interconnect. Empty on single-node
	// machines (which use the flat nets slice).
	nodeLinks []ResourceID
	nodes     int
	// physicalDisks is the disk count before any aggregation.
	physicalDisks int
	aggregated    bool
	aggregatedNet bool
}

// New builds a machine from the config. It panics if the config has no CPU
// or no disk, since no plan could execute on such a machine; configuration
// is programmer input, not runtime data.
func New(cfg Config) *Machine {
	if cfg.CPUs < 1 {
		panic("machine: config needs at least one CPU")
	}
	if cfg.Disks < 1 {
		panic("machine: config needs at least one disk")
	}
	speed := func(s float64) float64 {
		if s <= 0 {
			return 1
		}
		return s
	}
	nodes := cfg.Nodes
	if nodes < 1 {
		nodes = 1
	}
	m := &Machine{
		nodes:         nodes,
		physicalDisks: cfg.Disks * nodes,
		aggregated:    cfg.AggregateDisks,
		aggregatedNet: cfg.AggregateLinks && nodes > 1,
	}
	add := func(kind Kind, name string, sp, lat float64, node int) ResourceID {
		id := ResourceID(len(m.resources))
		m.resources = append(m.resources, Resource{ID: id, Kind: kind, Name: name, Speed: sp, Latency: lat, Node: node})
		return id
	}
	if nodes == 1 {
		for i := 0; i < cfg.CPUs; i++ {
			m.cpus = append(m.cpus, add(CPU, fmt.Sprintf("cpu%d", i), speed(cfg.CPUSpeed), 0, 0))
		}
		if cfg.AggregateDisks {
			m.disks = append(m.disks, add(Disk, "disks", speed(cfg.DiskSpeed)*float64(cfg.Disks), 0, 0))
		} else {
			for i := 0; i < cfg.Disks; i++ {
				m.disks = append(m.disks, add(Disk, fmt.Sprintf("disk%d", i), speed(cfg.DiskSpeed), 0, 0))
			}
		}
		for i := 0; i < cfg.Networks; i++ {
			m.nets = append(m.nets, add(Network, fmt.Sprintf("net%d", i), speed(cfg.NetSpeed), 0, 0))
		}
		m.cpuRR, m.diskRR = slices.Concat(m.cpus, m.cpus), m.disks
		return m
	}
	// Shared-nothing layout: node-major resource IDs (node k's CPUs, disks,
	// then its interconnect port), so a resource vector reads as contiguous
	// per-node blocks.
	for k := 0; k < nodes; k++ {
		for i := 0; i < cfg.CPUs; i++ {
			m.cpus = append(m.cpus, add(CPU, fmt.Sprintf("n%d.cpu%d", k, i), speed(cfg.CPUSpeed), 0, k))
		}
		if cfg.AggregateDisks {
			m.disks = append(m.disks, add(Disk, fmt.Sprintf("n%d.disks", k), speed(cfg.DiskSpeed)*float64(cfg.Disks), 0, k))
		} else {
			for i := 0; i < cfg.Disks; i++ {
				m.disks = append(m.disks, add(Disk, fmt.Sprintf("n%d.disk%d", k, i), speed(cfg.DiskSpeed), 0, k))
			}
		}
		if !m.aggregatedNet {
			link := add(Network, fmt.Sprintf("n%d.net", k), speed(cfg.NetSpeed), cfg.NetLatency, k)
			m.nets = append(m.nets, link)
			m.nodeLinks = append(m.nodeLinks, link)
		}
	}
	if m.aggregatedNet {
		link := add(Network, "interconnect", speed(cfg.NetSpeed)*float64(nodes), cfg.NetLatency, 0)
		m.nets = append(m.nets, link)
		for k := 0; k < nodes; k++ {
			m.nodeLinks = append(m.nodeLinks, link)
		}
	}
	rr := interleave(m.cpus, nodes)
	m.cpuRR = slices.Concat(rr, rr)
	m.diskRR = interleave(m.disks, nodes)
	return m
}

// interleave reorders node-major IDs (n0r0 n0r1 n1r0 n1r1 …) into node
// round-robin order (n0r0 n1r0 n0r1 n1r1 …), so index-based allocation
// spreads across nodes first.
func interleave(ids []ResourceID, nodes int) []ResourceID {
	per := len(ids) / nodes
	out := make([]ResourceID, 0, len(ids))
	for i := 0; i < per; i++ {
		for k := 0; k < nodes; k++ {
			out = append(out, ids[k*per+i])
		}
	}
	return out
}

// NumResources is the dimensionality l of resource vectors on this machine.
func (m *Machine) NumResources() int { return len(m.resources) }

// Resource returns the resource with the given ID. It panics on an invalid
// ID, which indicates a programming error (IDs come from the machine itself).
func (m *Machine) Resource(id ResourceID) Resource {
	if int(id) < 0 || int(id) >= len(m.resources) {
		panic(fmt.Sprintf("machine: invalid resource id %d", id))
	}
	return m.resources[id]
}

// Resources returns all resources in ID order. The slice is shared; callers
// must not modify it.
func (m *Machine) Resources() []Resource { return m.resources }

// CPUs returns the IDs of all CPU resources.
func (m *Machine) CPUs() []ResourceID { return m.cpus }

// Disks returns the IDs of all disk resources (one ID if aggregated).
func (m *Machine) Disks() []ResourceID { return m.disks }

// Networks returns the IDs of all network resources.
func (m *Machine) Networks() []ResourceID { return m.nets }

// PhysicalDisks is the number of physical disks, independent of aggregation.
func (m *Machine) PhysicalDisks() int { return m.physicalDisks }

// DiskFor maps a placement index (e.g. a relation's home disk number in the
// catalog) to a disk resource, wrapping modulo the disk count. Under
// aggregation every placement maps to the single logical disk (per node on a
// multi-node machine). On multi-node machines consecutive placements
// alternate across nodes, so a declustered relation spreads Gamma-style.
func (m *Machine) DiskFor(placement int) ResourceID {
	if placement < 0 {
		placement = -placement
	}
	return m.diskRR[placement%len(m.diskRR)]
}

// CPUFor maps an index to a CPU resource, wrapping modulo the CPU count. On
// multi-node machines consecutive indices alternate across nodes, so a clone
// set of degree ≥ 2 always spans nodes.
func (m *Machine) CPUFor(i int) ResourceID {
	if i < 0 {
		i = -i
	}
	return m.cpuRR[i%len(m.cpus)]
}

// CPUWindow returns CPUFor(offset+i) for i < deg (offset ≥ 0, deg ≤
// len(CPUs())) as a capped window of a shared table: it allocates nothing.
func (m *Machine) CPUWindow(offset, deg int) []ResourceID {
	o := offset % len(m.cpus)
	return m.cpuRR[o : o+deg : o+deg]
}

// NetworkFor returns a network resource if one exists, and false otherwise.
func (m *Machine) NetworkFor(i int) (ResourceID, bool) {
	if len(m.nets) == 0 {
		return 0, false
	}
	if i < 0 {
		i = -i
	}
	return m.nets[i%len(m.nets)], true
}

// Nodes is the number of shared-nothing nodes; 1 on a classic
// shared-everything machine.
func (m *Machine) Nodes() int { return m.nodes }

// NodeOf returns the node a resource belongs to.
func (m *Machine) NodeOf(id ResourceID) int { return m.Resource(id).Node }

// LinkFor returns node k's interconnect port (with AggregateLinks, the single
// logical interconnect). On single-node machines it falls back to NetworkFor,
// so callers can charge transfer work uniformly; ok is false only when the
// machine has no network resource at all.
func (m *Machine) LinkFor(node int) (ResourceID, bool) {
	if len(m.nodeLinks) == 0 {
		return m.NetworkFor(node)
	}
	if node < 0 {
		node = -node
	}
	return m.nodeLinks[node%len(m.nodeLinks)], true
}

// String summarizes the machine, e.g. "machine(4 cpu, 4 disk, 1 net)" or
// "machine(4 nodes × 2 cpu, 2 disk; 4 links)".
func (m *Machine) String() string {
	var b strings.Builder
	if m.nodes > 1 {
		fmt.Fprintf(&b, "machine(%d nodes × %d cpu, ", m.nodes, len(m.cpus)/m.nodes)
		if m.aggregated {
			fmt.Fprintf(&b, "%d disk aggregated as 1; ", m.physicalDisks/m.nodes)
		} else {
			fmt.Fprintf(&b, "%d disk; ", len(m.disks)/m.nodes)
		}
		if m.aggregatedNet {
			b.WriteString("1 interconnect)")
		} else {
			fmt.Fprintf(&b, "%d links)", len(m.nets))
		}
		return b.String()
	}
	fmt.Fprintf(&b, "machine(%d cpu, ", len(m.cpus))
	if m.aggregated {
		fmt.Fprintf(&b, "%d disk aggregated as 1, ", m.physicalDisks)
	} else {
		fmt.Fprintf(&b, "%d disk, ", len(m.disks))
	}
	fmt.Fprintf(&b, "%d net)", len(m.nets))
	return b.String()
}

// Names returns resource names in ID order, useful for labeling vectors.
func (m *Machine) Names() []string {
	names := make([]string, len(m.resources))
	for i, r := range m.resources {
		names[i] = r.Name
	}
	return names
}

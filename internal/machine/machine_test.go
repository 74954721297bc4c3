package machine

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDefault(t *testing.T) {
	m := New(DefaultConfig())
	if got, want := m.NumResources(), 9; got != want {
		t.Fatalf("NumResources = %d, want %d", got, want)
	}
	if len(m.CPUs()) != 4 || len(m.Disks()) != 4 || len(m.Networks()) != 1 {
		t.Fatalf("unexpected resource split: %v", m)
	}
}

func TestNewPanicsWithoutCPU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero CPUs")
		}
	}()
	New(Config{CPUs: 0, Disks: 1})
}

func TestNewPanicsWithoutDisk(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero disks")
		}
	}()
	New(Config{CPUs: 1, Disks: 0})
}

func TestAggregateDisks(t *testing.T) {
	m := New(Config{CPUs: 2, Disks: 8, AggregateDisks: true})
	if got := len(m.Disks()); got != 1 {
		t.Fatalf("aggregated disks = %d, want 1", got)
	}
	if got := m.PhysicalDisks(); got != 8 {
		t.Fatalf("PhysicalDisks = %d, want 8", got)
	}
	agg := m.Resource(m.Disks()[0])
	if agg.Speed != 8 {
		t.Fatalf("aggregate disk speed = %v, want 8 (sum of members)", agg.Speed)
	}
}

func TestSpeedDefaultsToOne(t *testing.T) {
	m := New(Config{CPUs: 1, Disks: 1})
	for _, r := range m.Resources() {
		if r.Speed != 1 {
			t.Errorf("resource %s speed = %v, want 1", r.Name, r.Speed)
		}
	}
}

func TestDiskForWraps(t *testing.T) {
	m := New(Config{CPUs: 1, Disks: 3})
	d0 := m.DiskFor(0)
	if got := m.DiskFor(3); got != d0 {
		t.Errorf("DiskFor(3) = %v, want %v (wrap)", got, d0)
	}
	if got := m.DiskFor(-3); got != d0 {
		t.Errorf("DiskFor(-3) = %v, want %v (negative wraps)", got, d0)
	}
}

func TestCPUForWraps(t *testing.T) {
	m := New(Config{CPUs: 2, Disks: 1})
	if m.CPUFor(0) != m.CPUFor(2) {
		t.Error("CPUFor should wrap modulo CPU count")
	}
	if m.CPUFor(0) == m.CPUFor(1) {
		t.Error("distinct CPU indexes below count must map to distinct CPUs")
	}
}

// TestCPUWindowIsCPUFor: every window is the CPUFor sequence it stands for,
// at every offset of two turns of the round-robin and every degree, on one
// node and on three; appending to a window leaves the shared table alone.
func TestCPUWindowIsCPUFor(t *testing.T) {
	for _, cfg := range []Config{{CPUs: 4, Disks: 1}, {CPUs: 2, Disks: 1, Nodes: 3}} {
		m := New(cfg)
		n := len(m.CPUs())
		for offset := 0; offset < 2*n; offset++ {
			for deg := 1; deg <= n; deg++ {
				w := m.CPUWindow(offset, deg)
				if len(w) != deg || cap(w) != deg {
					t.Fatalf("%s: CPUWindow(%d, %d) has len %d cap %d", m, offset, deg, len(w), cap(w))
				}
				for i, r := range w {
					if r != m.CPUFor(offset+i) {
						t.Fatalf("%s: CPUWindow(%d, %d)[%d] = %d, CPUFor(%d) = %d", m, offset, deg, i, r, offset+i, m.CPUFor(offset+i))
					}
				}
				_ = append(w, -1)
				if slices.Contains(m.cpuRR, -1) {
					t.Fatalf("%s: append to CPUWindow(%d, %d) wrote the shared table", m, offset, deg)
				}
			}
		}
	}
}

func TestNetworkFor(t *testing.T) {
	m := New(Config{CPUs: 1, Disks: 1})
	if _, ok := m.NetworkFor(0); ok {
		t.Error("machine without network should report ok=false")
	}
	m = New(Config{CPUs: 1, Disks: 1, Networks: 2})
	n0, ok := m.NetworkFor(0)
	if !ok {
		t.Fatal("expected a network resource")
	}
	if n1, _ := m.NetworkFor(1); n1 == n0 {
		t.Error("two networks should yield distinct resources")
	}
}

func TestResourceIDsAreDense(t *testing.T) {
	m := New(Config{CPUs: 3, Disks: 2, Networks: 1})
	for i, r := range m.Resources() {
		if int(r.ID) != i {
			t.Fatalf("resource %d has ID %d; IDs must be dense", i, r.ID)
		}
	}
}

func TestResourcePanicsOnBadID(t *testing.T) {
	m := New(Config{CPUs: 1, Disks: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range resource ID")
		}
	}()
	m.Resource(ResourceID(99))
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{CPU: "cpu", Disk: "disk", Network: "network", Kind(9): "kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestNamesMatchResources(t *testing.T) {
	m := New(Config{CPUs: 2, Disks: 2, Networks: 1})
	names := m.Names()
	if len(names) != m.NumResources() {
		t.Fatalf("Names length %d != NumResources %d", len(names), m.NumResources())
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate resource name %q", n)
		}
		seen[n] = true
	}
}

func TestString(t *testing.T) {
	m := New(Config{CPUs: 4, Disks: 4, Networks: 1})
	if got := m.String(); got != "machine(4 cpu, 4 disk, 1 net)" {
		t.Errorf("String() = %q", got)
	}
	m = New(Config{CPUs: 2, Disks: 8, AggregateDisks: true})
	if got := m.String(); got != "machine(2 cpu, 8 disk aggregated as 1, 0 net)" {
		t.Errorf("aggregated String() = %q", got)
	}
}

func TestMultiNodeLayout(t *testing.T) {
	m := New(Config{CPUs: 2, Disks: 2, Nodes: 4, NetLatency: 0.5})
	if got := m.Nodes(); got != 4 {
		t.Fatalf("Nodes() = %d, want 4", got)
	}
	// 4 nodes × (2 cpu + 2 disk + 1 link) = 20 resources.
	if got := m.NumResources(); got != 20 {
		t.Fatalf("NumResources = %d, want 20", got)
	}
	if got := len(m.CPUs()); got != 8 {
		t.Fatalf("len(CPUs) = %d, want 8", got)
	}
	if got := len(m.Networks()); got != 4 {
		t.Fatalf("len(Networks) = %d, want 4", got)
	}
	if got := m.PhysicalDisks(); got != 8 {
		t.Fatalf("PhysicalDisks = %d, want 8", got)
	}
	for i, r := range m.Resources() {
		if int(r.ID) != i {
			t.Fatalf("resource %d has ID %d; IDs must be dense", i, r.ID)
		}
	}
	// Every node owns a distinct link carrying the configured latency.
	seen := map[ResourceID]bool{}
	for k := 0; k < 4; k++ {
		link, ok := m.LinkFor(k)
		if !ok {
			t.Fatalf("LinkFor(%d) reported no link", k)
		}
		r := m.Resource(link)
		if r.Kind != Network || r.Node != k || r.Latency != 0.5 {
			t.Fatalf("LinkFor(%d) = %+v", k, r)
		}
		seen[link] = true
	}
	if len(seen) != 4 {
		t.Fatalf("expected 4 distinct links, got %d", len(seen))
	}
	if got := m.String(); got != "machine(4 nodes × 2 cpu, 2 disk; 4 links)" {
		t.Errorf("String() = %q", got)
	}
}

func TestMultiNodeRoundRobinSpansNodes(t *testing.T) {
	m := New(Config{CPUs: 2, Disks: 2, Nodes: 3})
	// Consecutive indices must land on distinct nodes until every node is
	// covered, so a clone set of degree ≥ 2 always spans nodes.
	nodes := map[int]bool{}
	for i := 0; i < 3; i++ {
		nodes[m.NodeOf(m.CPUFor(i))] = true
	}
	if len(nodes) != 3 {
		t.Errorf("first 3 CPU allocations cover %d nodes, want 3", len(nodes))
	}
	nodes = map[int]bool{}
	for i := 0; i < 3; i++ {
		nodes[m.NodeOf(m.DiskFor(i))] = true
	}
	if len(nodes) != 3 {
		t.Errorf("first 3 disk placements cover %d nodes, want 3", len(nodes))
	}
	// Wrapping still holds.
	if m.CPUFor(0) != m.CPUFor(6) {
		t.Error("CPUFor should wrap modulo total CPU count")
	}
}

func TestAggregateLinks(t *testing.T) {
	m := New(Config{CPUs: 1, Disks: 1, Nodes: 4, NetSpeed: 2, AggregateLinks: true})
	if got := len(m.Networks()); got != 1 {
		t.Fatalf("aggregated interconnect count = %d, want 1", got)
	}
	link := m.Resource(m.Networks()[0])
	if link.Speed != 8 {
		t.Fatalf("interconnect speed = %v, want 8 (NetSpeed × Nodes)", link.Speed)
	}
	for k := 0; k < 4; k++ {
		got, ok := m.LinkFor(k)
		if !ok || got != link.ID {
			t.Fatalf("LinkFor(%d) = %v, %v; want the single interconnect", k, got, ok)
		}
	}
	if got := m.String(); got != "machine(4 nodes × 1 cpu, 1 disk; 1 interconnect)" {
		t.Errorf("String() = %q", got)
	}
}

func TestMultiNodeAggregateDisksPerNode(t *testing.T) {
	m := New(Config{CPUs: 1, Disks: 4, Nodes: 2, AggregateDisks: true})
	if got := len(m.Disks()); got != 2 {
		t.Fatalf("per-node aggregated disks = %d, want 2 (one per node)", got)
	}
	for i, id := range m.Disks() {
		r := m.Resource(id)
		if r.Speed != 4 {
			t.Fatalf("disk %d speed = %v, want 4", i, r.Speed)
		}
	}
	if got := m.PhysicalDisks(); got != 8 {
		t.Fatalf("PhysicalDisks = %d, want 8", got)
	}
}

func TestSingleNodeLinkForFallsBack(t *testing.T) {
	m := New(Config{CPUs: 1, Disks: 1, Networks: 1})
	link, ok := m.LinkFor(0)
	if !ok {
		t.Fatal("LinkFor on single-node machine with a net should fall back to NetworkFor")
	}
	if net, _ := m.NetworkFor(0); net != link {
		t.Errorf("LinkFor(0) = %v, NetworkFor(0) = %v; want equal", link, net)
	}
	m = New(Config{CPUs: 1, Disks: 1})
	if _, ok := m.LinkFor(0); ok {
		t.Error("machine without network should report ok=false from LinkFor")
	}
}

// Property: for any valid config, resource IDs are a permutation of
// 0..NumResources-1 and DiskFor/CPUFor always return valid IDs.
func TestQuickMachineInvariants(t *testing.T) {
	f := func(cpus, disks, nets uint8, agg bool, probe int16) bool {
		cfg := Config{
			CPUs:           1 + int(cpus%16),
			Disks:          1 + int(disks%16),
			Networks:       int(nets % 3),
			AggregateDisks: agg,
		}
		m := New(cfg)
		want := cfg.CPUs + cfg.Networks
		if agg {
			want++
		} else {
			want += cfg.Disks
		}
		if m.NumResources() != want {
			return false
		}
		d := m.DiskFor(int(probe))
		c := m.CPUFor(int(probe))
		return m.Resource(d).Kind == Disk && m.Resource(c).Kind == CPU
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

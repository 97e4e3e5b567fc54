package experiments

import (
	"fmt"
	"strings"

	"deact/internal/core"
	"deact/internal/sim"
)

// TableI renders the qualitative FAM-architecture comparison of Table I.
func TableI() string {
	var b strings.Builder
	b.WriteString("Table I: FAM Architectures Comparison\n")
	b.WriteString("Architecture  Performance  Avoid-OS-Changes  Security\n")
	b.WriteString("E-FAM         yes          no                no\n")
	b.WriteString("I-FAM         no           yes               yes\n")
	b.WriteString("DeACT         yes          yes               yes\n")
	return b.String()
}

// TableII renders the simulated system configuration (the scaled Table II).
func TableII() string {
	c := core.DefaultConfig()
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: System Configuration (scaled ×1/4 capacity, see ARCHITECTURE.md)\n")
	fmt.Fprintf(&b, "CPU            %d cores/node, %.0fGHz, %d issues/cycle, %d max outstanding\n",
		c.CoresPerNode, 1000.0/float64(c.CycleTime), c.IssueWidth, c.MaxOutstanding)
	fmt.Fprintf(&b, "TLB            2 levels, L1 %d entries, L2 %d entries, PTW cache %d\n",
		c.MMU.L1Entries, c.MMU.L2Entries, c.MMU.PTWEntries)
	fmt.Fprintf(&b, "L1/L2/L3       %dKB / %dKB / %dKB, 64B blocks, LRU\n",
		c.Hierarchy.L1Size>>10, c.Hierarchy.L2Size>>10, c.Hierarchy.L3Size>>10)
	fmt.Fprintf(&b, "Local memory   DRAM %dMB (%d banks)\n", c.Layout.DRAMSize>>20, c.DRAMCfg.Banks)
	fmt.Fprintf(&b, "STU cache      %d entries, associativity %d\n", c.STUEntries, c.STUWays)
	fmt.Fprintf(&b, "Fabric         %dns one-way latency\n", uint64(c.FabricLatency/sim.Nanosecond))
	fmt.Fprintf(&b, "FAM (NVM)      %dMB, read %dns write %dns, %d banks, %d outstanding\n",
		c.Layout.FAMSize>>20, uint64(c.FAMCfg.ReadLatency/sim.Nanosecond),
		uint64(c.FAMCfg.WriteLatency/sim.Nanosecond), c.FAMCfg.Banks, c.Outstanding)
	fmt.Fprintf(&b, "FAM xlate $    %dKB in DRAM, 4-way\n", c.TranslationCacheBytes>>10)
	fmt.Fprintf(&b, "ACM            %d bits/page\n", c.Layout.ACMBits)
	return b.String()
}

package core

import (
	"context"
	"strings"
	"testing"

	"deact/internal/acm"
	"deact/internal/addr"
)

// TestSystemMigrationEndToEnd drives the §VI migration flow through the
// public API: run a job, migrate it, verify access control flips and the
// node-side caches were shot down.
func TestSystemMigrationEndToEnd(t *testing.T) {
	cfg := quickConfig(DeACTN, "pf")
	cfg.CoresPerNode = 1
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	brk := sys.Broker()
	if brk.OwnedPages(1) == 0 {
		t.Fatal("job owns nothing after running")
	}

	// Find a page the job owns.
	tbl, err := brk.NodeTable(1)
	if err != nil {
		t.Fatal(err)
	}
	var sample addr.FPage
	found := false
	for np := uint64(0); np < 1<<21 && !found; np++ {
		if fp, ok := tbl.Lookup(np); ok {
			sample, found = addr.FPage(fp), true
		}
	}
	if !found {
		t.Fatal("no mapped page found")
	}

	dirty := sys.Node(0).FlushTranslations()
	if dirty == 0 {
		t.Fatal("translation cache was empty after a run")
	}
	cost, err := brk.MigrateJob(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cost.ACMRewrites == 0 || cost.TranslationsMoved == 0 {
		t.Fatalf("migration cost empty: %+v", cost)
	}
	if d := brk.Meta().Check(sample, 1, acm.PermR); d.Allowed {
		t.Fatal("old node still allowed after migration")
	}
	if d := brk.Meta().Check(sample, 7, acm.PermR); !d.Allowed {
		t.Fatal("new node denied after migration")
	}
}

// TestExhaustionSurfacesAsError: a FAM pool too small for the workload
// must produce a diagnosable error, not a panic or silent wrap-around.
func TestExhaustionSurfacesAsError(t *testing.T) {
	cfg := quickConfig(DeACTN, "sssp")
	// Shrink the pool below the footprint.
	cfg.Layout.FAMSize = 32 << 20
	cfg.Layout.FAMZoneSize = 24 << 20
	cfg.Layout.DRAMSize = 8 << 20
	_, err := Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("exhausted pool did not error")
	}
	if !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestDenialAbortsDeterministically: corrupt a translation mid-run through
// the system accessors and confirm the run aborts with a denial.
func TestDenialAbortsDeterministically(t *testing.T) {
	cfg := quickConfig(DeACTN, "pf")
	cfg.CoresPerNode = 1
	cfg.WarmupInstructions = 10_000
	cfg.MeasureInstructions = 10_000
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Victim page owned by a foreign node.
	victim, err := sys.Broker().AllocatePage(9)
	if err != nil {
		t.Fatal(err)
	}
	// Forge translations for a swath of FAM-zone node pages.
	tr := sys.Node(0).Translator()
	base := cfg.Layout.FAMZoneBase().Page()
	for i := uint64(0); i < 4096; i++ {
		tr.Corrupt(base+addr.NPPage(i), victim)
	}
	_, err = sys.Run(context.Background())
	if err == nil {
		t.Fatal("run completed despite forged translations to foreign data")
	}
	if !strings.Contains(err.Error(), "denied") {
		t.Fatalf("unexpected error: %v", err)
	}
}

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
)

// Fingerprint returns the canonical run identity of the configuration: a
// hex-encoded 128-bit digest over every exported field, after
// normalization. Two configs that would simulate identically (differing
// only in fields Run derives, like Hierarchy.Cores) fingerprint equal;
// any other exported-field difference produces a different fingerprint.
//
// The experiment Runner keys its deduplication cache solely on this value,
// so run identity can never drift from the configuration the way a
// hand-written string key could.
func (c Config) Fingerprint() string {
	h := sha256.New()
	writeCanonical(h, "Config", reflect.ValueOf(c.normalized()), nil)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// warmupSkip lists the exported fields that cannot influence the system's
// state at the warmup/measure boundary: today only the measured-phase
// length. Every other field — geometry, latencies, seed, warmup length —
// shapes construction or the warmup simulation itself.
var warmupSkip = map[string]bool{"Config.MeasureInstructions": true}

// WarmupFingerprint is Fingerprint over only the warmup-relevant fields:
// two configs with equal WarmupFingerprints build identical systems and
// simulate identical warmup phases, differing at most in how long the
// measured phase runs afterwards. The experiments Runner groups sweep
// points by this value so a shared warmup prefix is simulated once and
// forked (via Snapshot/Restore) into each point's measured phase.
func (c Config) WarmupFingerprint() string {
	h := sha256.New()
	writeCanonical(h, "Config", reflect.ValueOf(c.normalized()), warmupSkip)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// normalized returns the config with derived fields rewritten to the values
// Run will actually use, so they cannot split or alias run identities.
func (c Config) normalized() Config {
	// hierarchyConfig overwrites the hierarchy's core count with CoresPerNode;
	// a stale Hierarchy.Cores never reaches the simulation.
	c.Hierarchy.Cores = c.CoresPerNode
	// 0 and 1 are two spellings of "single-tenant" and "one broker shard"
	// (tenantFor and brokerShards treat them identically); normalize so the
	// spellings cannot split run identity in the dedup cache.
	if c.Tenants == 0 {
		c.Tenants = 1
	}
	if c.BrokerShards == 0 {
		c.BrokerShards = 1
	}
	// "" and CoreInOrder are two spellings of the default timing model;
	// normalize so they cannot split run identity.
	if c.CoreModel == "" {
		c.CoreModel = CoreInOrder
	}
	return c
}

// writeCanonical emits an injective, deterministic encoding of v: every
// exported field in declaration order, tagged with its full path. Walking
// the struct by reflection means a newly added Config field changes the
// fingerprint automatically — it cannot be silently omitted the way a
// hand-maintained field list could. Unsupported field kinds (slices, maps,
// floats — none exist in Config today) panic so the mistake is caught by
// the first Fingerprint call in tests rather than by silent aliasing.
// Fields whose full path is in skip are left out entirely (nil skips
// nothing); a new field is therefore included in every fingerprint unless
// deliberately added to a skip set.
func writeCanonical(w io.Writer, path string, v reflect.Value, skip map[string]bool) {
	if skip[path] {
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("core: Fingerprint: unexported field %s.%s cannot carry run identity", path, f.Name))
			}
			writeCanonical(w, path+"."+f.Name, v.Field(i), skip)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%s=%d;", path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(w, "%s=%d;", path, v.Uint())
	case reflect.Bool:
		fmt.Fprintf(w, "%s=%t;", path, v.Bool())
	case reflect.String:
		fmt.Fprintf(w, "%s=%q;", path, v.String())
	default:
		panic(fmt.Sprintf("core: Fingerprint: unsupported field kind %s at %s", v.Kind(), path))
	}
}

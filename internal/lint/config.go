package lint

import "strings"

// Config selects which packages each analyzer covers and anchors the
// registry-coverage specs. DefaultConfig encodes this repository's
// contracts; fixture tests build small configs of the same shapes.
type Config struct {
	// DeterministicPkgs are the import-path *suffixes* (relative to the
	// module path, e.g. "internal/core") whose output must be a pure
	// function of their inputs: no wall clock, no math/rand, no
	// environment reads, no map-iteration order feeding rendered or
	// hashed output. Per-site exceptions use a //crossvet:wallclock
	// (rand, env, maprange) waiver with a reason.
	DeterministicPkgs []string
	// SimSuffix marks the simulator packages: any module package whose
	// base name ends with this suffix is one side of a cross-system
	// boundary (the paper's §2 unit of analysis). Every simulator
	// package is also implicitly deterministic.
	SimSuffix string
	// WallClockAllowed are the packages that legitimately touch the
	// wall clock (the service layer, the observability recorder, the
	// benchmark recorder). They must never appear in DeterministicPkgs;
	// the runner enforces the disjointness.
	WallClockAllowed []string
	// ObsPkg is the import path of the tracing package whose *Tracer /
	// *Span must be threaded across simulator boundaries.
	ObsPkg string
	// SentinelPkgPrefix scopes the error-contract analyzer: comparisons
	// with == / != against exported error sentinels declared in a
	// *different* package under this prefix are findings (use
	// errors.Is: a wrapped error crossing a boundary must still
	// classify). Empty means the whole module.
	SentinelPkgPrefix string
	// Registries are the registry ↔ classifier coverage contracts.
	Registries []RegistrySpec
}

// RegistrySpec anchors one registry family to its classifier. The
// registry side is always a set of `Signatures: []string{...}` (or
// `Signature: "..."`) literals inside the named registry functions;
// the classifier side is one of three shapes, matching the three
// idioms the repo uses:
//
//   - ClassifierFuncs: signature string literals returned from the
//     named functions (the Figure-6 and skew classifier switches);
//   - ClassifierConstPrefix: package-level string constants whose
//     names carry the prefix (the loadgen Sig* vocabulary);
//   - ClassifierField: string literals assigned to the named struct
//     field anywhere in the classifier package (the partition
//     scenario registry's Signature fields).
//
// Every registry signature must be producible as Prefix+literal for
// some Prefix (the forward check: no dead registry entry), and every
// classifier literal must map into the union of all registries' sig
// sets the same way (the reverse check: no orphan classifier case).
type RegistrySpec struct {
	// Name labels findings ("fig6", "skew", "partition", "load").
	Name string
	// RegistryPkg / RegistryFuncs locate the registry constructors.
	RegistryPkg   string
	RegistryFuncs []string
	// SigField is the registry field holding the signature strings
	// (default "Signatures").
	SigField string
	// ClassifierPkg locates the classifier package.
	ClassifierPkg string
	// Exactly one of the three classifier shapes should be set.
	ClassifierFuncs       []string
	ClassifierConstPrefix string
	ClassifierField       string
	// Prefixes are tried when matching classifier literals to registry
	// signatures; "" means the literal is the signature verbatim. The
	// skew classifier returns bare names that the oracle prefixes with
	// "skew-" at the emit site, so its spec carries {"", "skew-"}.
	Prefixes []string
}

// DefaultConfig returns the contracts of this repository.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{
			"internal/cluster/chash",
			"internal/core",
			"internal/fuzzgen",
			"internal/loadgen",
			"internal/partition",
			"internal/serde",
			"internal/sqlval",
			"internal/vclock",
			"internal/versions",
		},
		SimSuffix: "sim",
		WallClockAllowed: []string{
			"internal/cluster",
			"internal/serve",
			"internal/obs",
			"internal/benchrec",
		},
		ObsPkg:            "repro/internal/obs",
		SentinelPkgPrefix: "repro/",
		Registries: []RegistrySpec{
			{
				Name:          "fig6",
				RegistryPkg:   "repro/internal/inject",
				RegistryFuncs: []string{"Registry"},
				ClassifierPkg: "repro/internal/core",
				ClassifierFuncs: []string{
					"classifyError", "classifyCast", "classifyTargetFamily", "classifyValueDiff",
				},
				Prefixes: []string{""},
			},
			{
				Name:          "skew",
				RegistryPkg:   "repro/internal/inject",
				RegistryFuncs: []string{"SkewRegistry"},
				ClassifierPkg: "repro/internal/core",
				// classifySkew's distinctive cases plus the shared
				// fallthrough classifiers it delegates to; the oracle
				// prefixes every emitted name with "skew-", and a skew
				// entry may also claim a bare standard-oracle signature
				// (S1's "avro-unavailable"), hence both prefixes.
				ClassifierFuncs: []string{
					"classifySkew", "classifyError", "classifyCast", "classifyTargetFamily", "classifyValueDiff",
				},
				Prefixes: []string{"", "skew-"},
			},
			{
				Name:            "partition",
				RegistryPkg:     "repro/internal/inject",
				RegistryFuncs:   []string{"PartitionRegistry"},
				ClassifierPkg:   "repro/internal/partition",
				ClassifierField: "Signature",
				Prefixes:        []string{""},
			},
			{
				Name:                  "load",
				RegistryPkg:           "repro/internal/inject",
				RegistryFuncs:         []string{"LoadRegistry"},
				ClassifierPkg:         "repro/internal/loadgen",
				ClassifierConstPrefix: "Sig",
				Prefixes:              []string{""},
			},
		},
	}
}

// isDeterministic reports whether the package is under the
// determinism contract: listed explicitly, or a simulator package.
func (c *Config) isDeterministic(m *Module, p *Package) bool {
	for _, suf := range c.DeterministicPkgs {
		if p.ImportPath == m.Path+"/"+suf {
			return true
		}
	}
	return c.isSim(p)
}

// isSim reports whether the package is a simulator package.
func (c *Config) isSim(p *Package) bool {
	return c.SimSuffix != "" && strings.HasSuffix(p.Base(), c.SimSuffix)
}

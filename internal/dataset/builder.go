package dataset

import (
	"fmt"
	"sync"

	"repro/internal/csi"
)

// BuildFailures constructs the 120-record dataset: the anchor records
// of anchors.go plus synthesized records dealt from the published
// marginal pools. The build is deterministic and validates that every
// pool is consumed exactly.
func BuildFailures() ([]Failure, error) {
	b := newBuilder()
	out := make([]Failure, 0, TotalFailures)
	for _, a := range anchors() {
		if err := b.consume(&a); err != nil {
			return nil, fmt.Errorf("dataset: anchor %s: %w", a.ID, err)
		}
		out = append(out, a)
	}
	synth, err := b.synthesize(len(out))
	if err != nil {
		return nil, err
	}
	out = append(out, synth...)
	if err := b.validateEmpty(); err != nil {
		return nil, err
	}
	if len(out) != TotalFailures {
		return nil, fmt.Errorf("dataset: built %d records, want %d", len(out), TotalFailures)
	}
	return out, nil
}

var (
	failuresOnce sync.Once
	failuresMemo []Failure
	failuresErr  error
)

// Failures returns the memoized dataset, panicking on a construction
// bug (which the test suite rules out).
//
//crossvet:unused-export the Table 1-9 and Findings tests in internal/study read the memoized dataset
func Failures() []Failure {
	failuresOnce.Do(func() {
		failuresMemo, failuresErr = BuildFailures()
	})
	if failuresErr != nil {
		panic(failuresErr)
	}
	return failuresMemo
}

type builder struct {
	pairRemaining  map[csi.Interaction]int
	pairOrder      []PairTarget
	planeRemaining map[csi.Plane]int

	symptoms []symptomTarget

	dataCells     []dataCell
	dataPatterns  []patternCount[DataPattern]
	serialization int

	configPatterns   []patternCount[ConfigPattern]
	configCategories []patternCount[ConfigCategory]
	monitoring       int

	controlPatterns []patternCount[ControlPattern]
	apiMisuses      []patternCount[APIMisuse]

	fixPatterns  []patternCount[FixPattern]
	fixLocations []patternCount[FixLocation]
}

type dataCell struct {
	key   dataJointKey
	count int
}

type patternCount[T comparable] struct {
	value T
	count int
}

func newBuilder() *builder {
	b := &builder{
		pairRemaining:  map[csi.Interaction]int{},
		planeRemaining: map[csi.Plane]int{},
		symptoms:       SymptomTargets(),
		serialization:  SerializationTarget,
		monitoring:     MonitoringTarget,
	}
	b.pairOrder = PairTargets()
	for _, p := range b.pairOrder {
		b.pairRemaining[csi.Interaction{Upstream: p.Upstream, Downstream: p.Downstream}] = p.Count
	}
	for plane, n := range PlaneTargets {
		b.planeRemaining[plane] = n
	}
	// Ordered pools: the deal order is part of the deterministic build.
	joint := DataJointTargets()
	for _, a := range []DataAbstraction{AbstractionTable, AbstractionFile, AbstractionStream, AbstractionKVTuple} {
		for _, p := range []DataProperty{PropAddress, PropSchemaStructure, PropSchemaValue, PropCustom, PropAPISemantics} {
			if n := joint[dataJointKey{a, p}]; n > 0 {
				b.dataCells = append(b.dataCells, dataCell{dataJointKey{a, p}, n})
			}
		}
	}
	b.dataPatterns = orderedPool(DataPatternTargets,
		TypeConfusion, UnsupportedOperations, UnspokenConvention, UndefinedValues, WrongAPIAssumptions)
	b.configPatterns = orderedPool(ConfigPatternTargets,
		ConfigIgnorance, ConfigUnexpectedOverride, ConfigInconsistentContext, ConfigMishandledValues)
	b.configCategories = orderedPool(ConfigCategoryTargets, ConfigParameter, ConfigComponent)
	b.controlPatterns = orderedPool(ControlPatternTargets,
		APISemanticViolation, StateResourceInconsistency, FeatureInconsistency)
	b.apiMisuses = orderedPool(APIMisuseTargets, ImplicitSemanticViolation, WrongInvocationContext)
	b.fixPatterns = orderedPool(FixPatternTargets, FixChecking, FixErrorHandling, FixInteraction, FixOthers)
	b.fixLocations = orderedPool(FixLocationTargets, FixUpstreamConnector, FixUpstreamSpecific, FixGeneric, FixNone)
	return b
}

func orderedPool[T comparable](m map[T]int, order ...T) []patternCount[T] {
	out := make([]patternCount[T], 0, len(order))
	for _, v := range order {
		out = append(out, patternCount[T]{value: v, count: m[v]})
	}
	return out
}

func takeValue[T comparable](pool []patternCount[T], v T) error {
	for i := range pool {
		if pool[i].value == v {
			if pool[i].count <= 0 {
				return fmt.Errorf("pool exhausted for %v", v)
			}
			pool[i].count--
			return nil
		}
	}
	return fmt.Errorf("value %v not in pool", v)
}

func popNext[T comparable](pool []patternCount[T]) (T, error) {
	for i := range pool {
		if pool[i].count > 0 {
			pool[i].count--
			return pool[i].value, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("pool empty")
}

// consume subtracts an anchor record from every pool it draws on.
func (b *builder) consume(f *Failure) error {
	pair := f.Interaction()
	if b.pairRemaining[pair] <= 0 {
		return fmt.Errorf("pair %s exhausted", pair)
	}
	b.pairRemaining[pair]--
	if b.planeRemaining[f.Plane] <= 0 {
		return fmt.Errorf("plane %v exhausted", f.Plane)
	}
	b.planeRemaining[f.Plane]--
	if err := b.takeSymptom(f.Symptom); err != nil {
		return err
	}
	switch f.Plane {
	case csi.DataPlane:
		if err := b.takeDataCell(dataJointKey{f.DataAbstraction, f.DataProperty}); err != nil {
			return err
		}
		if err := takeValue(b.dataPatterns, f.DataPattern); err != nil {
			return err
		}
		if f.Serialization {
			if b.serialization <= 0 {
				return fmt.Errorf("serialization pool exhausted")
			}
			b.serialization--
		}
	case csi.ManagementPlane:
		if f.MgmtKind == MgmtMonitoring {
			if b.monitoring <= 0 {
				return fmt.Errorf("monitoring pool exhausted")
			}
			b.monitoring--
		} else {
			if err := takeValue(b.configPatterns, f.ConfigPattern); err != nil {
				return err
			}
			if err := takeValue(b.configCategories, f.ConfigCategory); err != nil {
				return err
			}
		}
	case csi.ControlPlane:
		if err := takeValue(b.controlPatterns, f.ControlPattern); err != nil {
			return err
		}
		if f.ControlPattern == APISemanticViolation {
			if err := takeValue(b.apiMisuses, f.APIMisuse); err != nil {
				return err
			}
		}
	}
	if err := takeValue(b.fixPatterns, f.FixPattern); err != nil {
		return err
	}
	return takeValue(b.fixLocations, f.FixLocation)
}

func (b *builder) takeSymptom(s Symptom) error {
	for i := range b.symptoms {
		t := &b.symptoms[i]
		if t.Scope == s.Scope && t.Name == s.Name {
			if t.Crashing != s.Crashing {
				return fmt.Errorf("symptom %q crashing mismatch", s.Name)
			}
			if t.Count <= 0 {
				return fmt.Errorf("symptom pool %q exhausted", s.Name)
			}
			t.Count--
			return nil
		}
	}
	return fmt.Errorf("unknown symptom %v/%q", s.Scope, s.Name)
}

func (b *builder) takeDataCell(key dataJointKey) error {
	for i := range b.dataCells {
		if b.dataCells[i].key == key {
			if b.dataCells[i].count <= 0 {
				return fmt.Errorf("data cell %v exhausted", key)
			}
			b.dataCells[i].count--
			return nil
		}
	}
	return fmt.Errorf("data cell %v not in Table 5", key)
}

// synthesize deals the remaining records: planes are assigned to pair
// slots (control-plane records to control-interaction pairs, data to
// data pairs, management anywhere), then the per-plane attribute pools
// are dealt in order.
func (b *builder) synthesize(startIndex int) ([]Failure, error) {
	type slot struct {
		pair  csi.Interaction
		plane csi.Plane
	}
	var slots []slot

	assign := func(plane csi.Plane, wantInteraction csi.Plane, restrict bool) {
		for b.planeRemaining[plane] > 0 {
			progressed := false
			for _, p := range b.pairOrder {
				if b.planeRemaining[plane] == 0 {
					break
				}
				if restrict && p.Interaction != wantInteraction {
					continue
				}
				pair := csi.Interaction{Upstream: p.Upstream, Downstream: p.Downstream}
				if b.pairRemaining[pair] == 0 {
					continue
				}
				b.pairRemaining[pair]--
				b.planeRemaining[plane]--
				slots = append(slots, slot{pair: pair, plane: plane})
				progressed = true
			}
			if !progressed {
				break
			}
		}
	}
	assign(csi.ControlPlane, csi.ControlPlane, true)
	assign(csi.DataPlane, csi.DataPlane, true)
	assign(csi.ManagementPlane, csi.ControlPlane, false)

	out := make([]Failure, 0, len(slots))
	for i, s := range slots {
		f := Failure{
			ID:          csi.IssueID(fmt.Sprintf("CSI-%04d", 1000+startIndex+i)),
			Upstream:    s.pair.Upstream,
			Downstream:  s.pair.Downstream,
			Plane:       s.plane,
			Synthesized: true,
		}
		sym, err := b.popSymptom()
		if err != nil {
			return nil, err
		}
		f.Symptom = sym
		switch s.plane {
		case csi.DataPlane:
			cell, err := b.popDataCell()
			if err != nil {
				return nil, err
			}
			f.DataAbstraction, f.DataProperty = cell.Abstraction, cell.Property
			f.DataPattern, err = popNext(b.dataPatterns)
			if err != nil {
				return nil, err
			}
			if b.serialization > 0 &&
				(f.DataProperty == PropSchemaStructure || f.DataProperty == PropSchemaValue) {
				f.Serialization = true
				b.serialization--
			}
			f.Title = fmt.Sprintf("Synthesized: %s→%s data-plane discrepancy in %s (%s)",
				f.Upstream, f.Downstream, f.DataProperty, f.DataPattern)
		case csi.ManagementPlane:
			if pat, err := popNext(b.configPatterns); err == nil {
				f.MgmtKind = MgmtConfig
				f.ConfigPattern = pat
				f.ConfigCategory, err = popNext(b.configCategories)
				if err != nil {
					return nil, err
				}
				f.Title = fmt.Sprintf("Synthesized: %s→%s configuration discrepancy (%s)",
					f.Upstream, f.Downstream, f.ConfigPattern)
			} else {
				if b.monitoring <= 0 {
					return nil, fmt.Errorf("dataset: management pools exhausted early")
				}
				b.monitoring--
				f.MgmtKind = MgmtMonitoring
				f.Title = fmt.Sprintf("Synthesized: %s→%s monitoring discrepancy", f.Upstream, f.Downstream)
			}
		case csi.ControlPlane:
			var err error
			f.ControlPattern, err = popNext(b.controlPatterns)
			if err != nil {
				return nil, err
			}
			if f.ControlPattern == APISemanticViolation {
				f.APIMisuse, err = popNext(b.apiMisuses)
				if err != nil {
					return nil, err
				}
			}
			f.Title = fmt.Sprintf("Synthesized: %s→%s control-plane discrepancy (%s)",
				f.Upstream, f.Downstream, f.ControlPattern)
		}
		// Fix pattern and location, pairing "no merged fix" with the
		// Others pattern.
		pat, err := popNext(b.fixPatterns)
		if err != nil {
			return nil, err
		}
		f.FixPattern = pat
		if pat == FixOthers {
			if err := takeValue(b.fixLocations, FixNone); err != nil {
				return nil, err
			}
			f.FixLocation = FixNone
		} else {
			for _, loc := range []FixLocation{FixUpstreamConnector, FixUpstreamSpecific, FixGeneric} {
				if takeValue(b.fixLocations, loc) == nil {
					f.FixLocation = loc
					err = nil
					break
				}
				err = fmt.Errorf("dataset: fix-location pool exhausted")
			}
			if err != nil {
				return nil, err
			}
		}
		out = append(out, f)
	}
	return out, nil
}

func (b *builder) popSymptom() (Symptom, error) {
	for i := range b.symptoms {
		if b.symptoms[i].Count > 0 {
			b.symptoms[i].Count--
			return b.symptoms[i].Symptom, nil
		}
	}
	return Symptom{}, fmt.Errorf("dataset: symptom pool empty")
}

func (b *builder) popDataCell() (dataJointKey, error) {
	for i := range b.dataCells {
		if b.dataCells[i].count > 0 {
			b.dataCells[i].count--
			return b.dataCells[i].key, nil
		}
	}
	return dataJointKey{}, fmt.Errorf("dataset: Table 5 pool empty")
}

func (b *builder) validateEmpty() error {
	for pair, n := range b.pairRemaining {
		if n != 0 {
			return fmt.Errorf("dataset: pair %s has %d unfilled slots", pair, n)
		}
	}
	for plane, n := range b.planeRemaining {
		if n != 0 {
			return fmt.Errorf("dataset: plane %v has %d unfilled slots", plane, n)
		}
	}
	for _, s := range b.symptoms {
		if s.Count != 0 {
			return fmt.Errorf("dataset: symptom %q has %d left", s.Name, s.Count)
		}
	}
	for _, c := range b.dataCells {
		if c.count != 0 {
			return fmt.Errorf("dataset: Table 5 cell %v has %d left", c.key, c.count)
		}
	}
	if b.serialization != 0 {
		return fmt.Errorf("dataset: serialization pool has %d left", b.serialization)
	}
	if b.monitoring != 0 {
		return fmt.Errorf("dataset: monitoring pool has %d left", b.monitoring)
	}
	pools := []func() error{
		poolEmpty(b.dataPatterns), poolEmpty(b.configPatterns), poolEmpty(b.configCategories),
		poolEmpty(b.controlPatterns), poolEmpty(b.apiMisuses), poolEmpty(b.fixPatterns), poolEmpty(b.fixLocations),
	}
	for _, check := range pools {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

func poolEmpty[T comparable](pool []patternCount[T]) func() error {
	return func() error {
		for _, p := range pool {
			if p.count != 0 {
				return fmt.Errorf("dataset: pool value %v has %d left", p.value, p.count)
			}
		}
		return nil
	}
}

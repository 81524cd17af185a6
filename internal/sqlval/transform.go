package sqlval

// TransformLeaves returns a copy of v with f applied to every non-null
// leaf (non-nested) value, recursing through arrays, maps and structs.
// Engines use it to apply read/write-side reinterpretations such as
// calendar rebasing and time-zone adjustment uniformly to nested data.
func TransformLeaves(v Value, f func(Value) Value) Value {
	if v.null {
		return v
	}
	if !v.Type().IsNested() {
		return f(v)
	}
	out := v
	out.elems = mapElems(v.elems, func(e Value) Value { return TransformLeaves(e, f) })
	return out
}

// RebaseDates returns a leaf transformer that applies f to DATE day
// counts and leaves other values untouched.
func RebaseDates(f func(int64) int64) func(Value) Value {
	return func(v Value) Value {
		if v.kind == KindDate {
			v.word = uint64(f(v.Int()))
		}
		return v
	}
}

// ShiftTimestamps returns a leaf transformer that adds deltaMicros to
// TIMESTAMP values.
func ShiftTimestamps(deltaMicros int64) func(Value) Value {
	return func(v Value) Value {
		if v.kind == KindTimestamp {
			v.word = uint64(v.Int() + deltaMicros)
		}
		return v
	}
}

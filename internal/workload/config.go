package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Resolve returns the builtin config named ref, or else reads ref as a
// JSON config file (see Decode). Both traffic tiers resolve their
// -tenants / -frontend arguments through it.
func Resolve[T any](ref string, builtins []T, name func(T) string) (T, error) {
	for _, b := range builtins {
		if name(b) == ref {
			return b, nil
		}
	}
	data, err := os.ReadFile(ref)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("not a builtin (try -list) and %w", err)
	}
	v, err := Decode[T](data)
	if err != nil {
		return v, fmt.Errorf("%s: %w", ref, err)
	}
	return v, nil
}

// Decode parses one JSON config strictly: an unknown field (a
// misspelled key) or data after the config is an error, not a silently
// ignored default.
func Decode[T any](data []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return v, fmt.Errorf("trailing data after the config")
	}
	return v, nil
}

package core

import (
	"reflect"
	"testing"
)

// TestStatFieldsListEveryField checks StatFields against the Stats type:
// every int64 field appears in exactly one row, every row names one, and
// no two rows share a series name.
func TestStatFieldsListEveryField(t *testing.T) {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	field := make(map[*int64]string)
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Int64 {
			field[f.Addr().Interface().(*int64)] = v.Type().Field(i).Name
		} else {
			t.Errorf("Stats.%s is a %s, not an int64", v.Type().Field(i).Name, f.Type())
		}
	}
	rows := make(map[string]string)
	names := make(map[string]bool)
	for _, f := range StatFields {
		name, ok := field[f.Of(&st)]
		if !ok {
			t.Errorf("row %q points outside the Stats it is given", f.Name)
			continue
		}
		if prev, dup := rows[name]; dup {
			t.Errorf("Stats.%s is listed twice, as %q and %q", name, prev, f.Name)
		}
		rows[name] = f.Name
		if names[f.Name] {
			t.Errorf("two rows share the series name %q", f.Name)
		}
		names[f.Name] = true
	}
	for _, name := range field {
		if _, ok := rows[name]; !ok {
			t.Errorf("Stats.%s is missing from StatFields", name)
		}
	}
}

// TestStatsAddSumsEveryField gives every field of two Stats a distinct
// value and checks that Add leaves each field of the receiver at its sum.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := range va.NumField() {
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(1000 * (i + 1)))
	}
	a.Add(b)
	for i := range va.NumField() {
		if got, want := va.Field(i).Int(), int64(1001*(i+1)); got != want {
			t.Errorf("Stats.%s = %d after Add, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}

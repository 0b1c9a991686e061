package experiments

import (
	"fmt"
	"strings"

	"vibepm/internal/dsp"
	"vibepm/internal/mems"
)

// Table1Row is one sensor generation of the paper's Table I, augmented
// with the measured noise floor our simulator realizes for that spec.
type Table1Row struct {
	Spec mems.Spec
	// MeasuredNoiseG is the RMS reading (g) the sensor reports on a
	// perfectly still source — the realized noise floor.
	MeasuredNoiseG float64
}

// Table1Result reproduces Table I.
type Table1Result struct {
	Rows []Table1Row
}

// stillSource emits zero acceleration — used to expose pure sensor
// noise.
type stillSource struct{}

func (stillSource) AccelerationInto(x, y, z []float64, _, _ float64) {
	clear(x)
	clear(y)
	clear(z)
}

// Table1 regenerates the sensor comparison: the datasheet rows plus the
// empirical noise floor of each model.
func Table1(seed int64) (*Table1Result, error) {
	res := &Table1Result{}
	for i, spec := range mems.Specs() {
		sensor, err := mems.New(mems.Config{Spec: spec, Seed: seed + int64(i)})
		if err != nil {
			return nil, err
		}
		m := sensor.Measure(stillSource{}, 0, 4096)
		res.Rows = append(res.Rows, Table1Row{
			Spec:           spec,
			MeasuredNoiseG: dsp.RMS(dsp.Demean(m.AxisG(0))),
		})
	}
	return res, nil
}

// String renders the table.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s", "")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%16s", row.Spec.Name)
	}
	b.WriteByte('\n')
	line := func(label string, f func(Table1Row) string) {
		fmt.Fprintf(&b, "%-18s", label)
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%16s", f(row))
		}
		b.WriteByte('\n')
	}
	line("Price", func(r Table1Row) string { return fmt.Sprintf("US$ %.0f", r.Spec.PriceUSD) })
	line("Power", func(r Table1Row) string { return fmt.Sprintf("%.0f mW", r.Spec.PowerW*1000) })
	line("Size (in)", func(r Table1Row) string {
		s := r.Spec.SizeInches
		return fmt.Sprintf("%.2fx%.2fx%.2f", s[0], s[1], s[2])
	})
	line("Noise", func(r Table1Row) string { return fmt.Sprintf("%.0f ug", r.Spec.NoiseRMSMicroG) })
	line("Resonance", func(r Table1Row) string { return fmt.Sprintf("%.0f kHz", r.Spec.ResonanceHz/1000) })
	line("Range", func(r Table1Row) string { return fmt.Sprintf("%.0f g", r.Spec.RangeG) })
	line("Measured noise", func(r Table1Row) string { return fmt.Sprintf("%.0f ug RMS", r.MeasuredNoiseG*1e6) })
	return b.String()
}

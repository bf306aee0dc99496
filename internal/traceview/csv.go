package traceview

import (
	"encoding/csv"
	"io"
	"strconv"

	"predrm/internal/telemetry"
)

// WriteCSV exports the decoded trace as a decision-level timeseries: one
// row per state-changing event (admissions, rejections, completions,
// migrations, solver returns) with the running aggregates after it. The
// columns make the paper's headline curves — rejection rate, energy,
// solver overhead — plottable directly from a saved trace.
func WriteCSV(w io.Writer, d *Decoded) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"t", "event", "req", "res", "in_flight",
		"admitted", "rejected",
		"cum_energy", "cum_migration_energy",
		"solver_wall_ns",
	}); err != nil {
		return err
	}
	// Per-request migration energy, pre-summed so a completion row can add
	// only the job's execution share (migrations were charged when they
	// happened).
	migByReq := make(map[int]float64)
	for _, e := range d.Events {
		if e.Type == telemetry.EvMigration && e.Req >= 0 {
			migByReq[e.Req] += e.Value
		}
	}
	var (
		inFlight, admitted, rejected int
		energy, migEnergy            float64
	)
	ftoa := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	row := func(e telemetry.Event, wallNs int64) error {
		return cw.Write([]string{
			ftoa(e.T), string(e.Type),
			strconv.Itoa(e.Req), strconv.Itoa(e.Res),
			strconv.Itoa(inFlight),
			strconv.Itoa(admitted), strconv.Itoa(rejected),
			ftoa(energy), ftoa(migEnergy),
			strconv.FormatInt(wallNs, 10),
		})
	}
	for _, e := range d.Events {
		wallNs := int64(0)
		switch e.Type {
		case telemetry.EvAdmit:
			admitted++
			inFlight++
		case telemetry.EvReject:
			rejected++
		case telemetry.EvMigration:
			migEnergy += e.Value
			energy += e.Value
		case telemetry.EvJobFinish:
			if e.Req >= 0 {
				inFlight--
				energy += e.Value - migByReq[e.Req]
			}
		case telemetry.EvSolverReturned:
			wallNs = e.WallNs
		default:
			continue
		}
		if err := row(e, wallNs); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

package exp

import (
	"fmt"

	"repro/internal/isolation"
	"repro/internal/report"
)

// BackendMatrix summarizes the unified isolation layer: for each
// backend the per-crossing transition cost (§6.4.1, §6.4.3), the
// per-slot lifecycle costs for a 64 KiB linear memory (§7), and the
// slot density the mechanism reaches in the §6.4.2 address budget
// (408 MB memories in 85 TiB). It is the paper's comparison collapsed
// onto the isolation Kind axis: every number comes from the same cost
// models the runtime and the FaaS simulator charge.
func BackendMatrix(_ Profile) (*report.Table, error) {
	const memKiB = uint64(64 << 10)
	budget := uint64(85) << 40
	maxMem := uint64(408) << 20
	guard := uint64(6)<<30 - maxMem

	t := &report.Table{
		ID: "backend-matrix", Title: "Isolation backends: transition, lifecycle, and density",
		Headers: []string{"backend", "round trip ns", "switch ns", "init µs/64K", "reuse µs/64K", "teardown µs/64K", "slots in 85 TiB"},
		Notes: []string{
			"round trip: enter+leave one sandbox invocation; switch: extra cost when domains are OS processes",
			"init: first allocation (mmap+zero+coloring); reuse: allocation after a recycle; teardown: madvise recycle",
			"mte(+fix) is the MTE backend under the proposed tag-preserving madvise",
		},
	}
	type variant struct {
		name     string
		kind     isolation.Kind
		preserve bool
	}
	variants := []variant{
		{"guardpage", isolation.GuardPage, false},
		{"colorguard", isolation.ColorGuard, false},
		{"mte", isolation.MTE, false},
		{"mte(+fix)", isolation.MTE, true},
		{"multiproc", isolation.MultiProc, false},
	}
	for _, v := range variants {
		trans := isolation.TransitionForScheme(isolation.SchemeDefault, v.kind)
		life := isolation.LifecycleFor(v.kind, v.preserve)
		cfg := isolation.Config{MaxMemoryBytes: maxMem, GuardBytes: guard, TotalBytes: budget, Keys: 15}
		l, err := isolation.PlanLayout(v.kind, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name,
			fmt.Sprintf("%.2f", trans.RoundTripNs()),
			fmt.Sprintf("%.0f", trans.SwitchNs+trans.RefillNs),
			fmt.Sprintf("%.0f", life.InitNs(memKiB, true)/1e3),
			fmt.Sprintf("%.0f", life.InitNs(memKiB, life.RecolorOnReuse)/1e3),
			fmt.Sprintf("%.0f", life.TeardownNs(memKiB)/1e3),
			fmt.Sprintf("%d", l.NumSlots),
		)
	}
	return t, nil
}

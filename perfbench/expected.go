package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/workloads"
)

// expected.json holds the outputs every run is checked against. It is
// built only from references independent of the code under test:
// checksums from the IR interpreter (ir.Interp), simulated instruction
// and cycle counts from the slow execution tier (the differential
// oracle), never from the fused tier the benchmark times.
//
//go:embed expected.json
var expectedJSON []byte

// cellExp is one spec-batch cell: a SPEC kernel under one SFI mode at
// benchmark-scale arguments, on a standalone instance.
type cellExp struct {
	Kernel   string   `json:"kernel"`
	Mode     string   `json:"mode"`
	Args     []uint64 `json:"args"`
	Checksum uint64   `json:"checksum"`
	Insts    uint64   `json:"insts"`
	Cycles   float64  `json:"cycles"`
}

// faasExp is one FaaS kernel at the server's default batch, compiled
// the way the server compiles it (Segue) on a standalone instance.
type faasExp struct {
	Kernel   string  `json:"kernel"`
	Batch    uint64  `json:"batch"`
	Checksum uint64  `json:"checksum"`
	Insts    uint64  `json:"insts"`
	Cycles   float64 `json:"cycles"`
}

type expected struct {
	Spec []cellExp `json:"spec"`
	FaaS []faasExp `json:"faas"`
}

// specModes are the two Figure 3 configurations, in table order.
var specModes = []sfi.Mode{sfi.ModeGuard, sfi.ModeSegue}

// faasConfig is the compile configuration internal/server uses.
func faasConfig() sfi.Config { return sfi.DefaultConfig(sfi.ModeSegue) }

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("parsing expected.json: %w", err)
	}
	return &e, nil
}

func (e *expected) cell(kernel string, mode sfi.Mode) (cellExp, bool) {
	for _, c := range e.Spec {
		if c.Kernel == kernel && c.Mode == mode.String() {
			return c, true
		}
	}
	return cellExp{}, false
}

func (e *expected) faas(kernel string) (faasExp, bool) {
	for _, f := range e.FaaS {
		if f.Kernel == kernel {
			return f, true
		}
	}
	return faasExp{}, false
}

// checkRun compares one execution's checksum and simulated counts with
// its expectation; any difference is an error naming the field.
func checkRun(what string, wantSum, gotSum, wantInsts, gotInsts uint64, wantCycles, gotCycles float64) error {
	switch {
	case gotSum != wantSum:
		return fmt.Errorf("%s: checksum %d, want %d", what, gotSum, wantSum)
	case gotInsts != wantInsts:
		return fmt.Errorf("%s: %d simulated instructions, want %d", what, gotInsts, wantInsts)
	case gotCycles != wantCycles:
		return fmt.Errorf("%s: %v simulated cycles, want %v", what, gotCycles, wantCycles)
	}
	return nil
}

// interpChecksum runs a kernel on the IR interpreter.
func interpChecksum(k workloads.Kernel, args []uint64) (uint64, error) {
	ip, err := ir.NewInterp(k.Build(false), nil)
	if err != nil {
		return 0, err
	}
	res, err := ip.Invoke(k.Entry, args...)
	if err != nil {
		return 0, err
	}
	if len(res) == 0 {
		return 0, fmt.Errorf("%s returned no checksum", k.Name)
	}
	return res[0], nil
}

// slowTierRun compiles and invokes a kernel on a standalone instance
// whose machine runs the slow (oracle) tier.
func slowTierRun(k workloads.Kernel, cfg sfi.Config, args []uint64) (cpu.Stats, uint64, error) {
	mod, err := rt.CompileModule(k.Build(false), cfg)
	if err != nil {
		return cpu.Stats{}, 0, err
	}
	inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
	if err != nil {
		return cpu.Stats{}, 0, err
	}
	inst.Mach.Tier = cpu.TierSlow
	res, err := inst.Invoke(k.Entry, args...)
	if err != nil {
		return cpu.Stats{}, 0, err
	}
	return inst.Mach.Stats, res[0], nil
}

// generateExpected rebuilds expected.json from the references. The
// slow tier's own checksum must agree with the interpreter's, or the
// generator refuses to write anything.
func generateExpected(path string) error {
	var e expected
	for _, k := range workloads.Spec2006().Kernels {
		sum, err := interpChecksum(k, k.Args)
		if err != nil {
			return fmt.Errorf("%s on ir.Interp: %w", k.Name, err)
		}
		for _, mode := range specModes {
			st, slowSum, err := slowTierRun(k, sfi.DefaultConfig(mode), k.Args)
			if err != nil {
				return fmt.Errorf("%s/%v on the slow tier: %w", k.Name, mode, err)
			}
			if slowSum != sum {
				return fmt.Errorf("%s/%v: slow tier checksum %d, interpreter %d", k.Name, mode, slowSum, sum)
			}
			e.Spec = append(e.Spec, cellExp{Kernel: k.Name, Mode: mode.String(), Args: k.Args,
				Checksum: sum, Insts: st.Insts, Cycles: st.Cycles})
			fmt.Fprintf(os.Stderr, "%s/%v: %d insts\n", k.Name, mode, st.Insts)
		}
	}
	for _, k := range workloads.FaaS().Kernels {
		batch := k.TestArgs[0]
		sum, err := interpChecksum(k, []uint64{batch})
		if err != nil {
			return fmt.Errorf("%s on ir.Interp: %w", k.Name, err)
		}
		st, slowSum, err := slowTierRun(k, faasConfig(), []uint64{batch})
		if err != nil {
			return fmt.Errorf("%s on the slow tier: %w", k.Name, err)
		}
		if slowSum != sum {
			return fmt.Errorf("%s: slow tier checksum %d, interpreter %d", k.Name, slowSum, sum)
		}
		e.FaaS = append(e.FaaS, faasExp{Kernel: k.Name, Batch: batch,
			Checksum: sum, Insts: st.Insts, Cycles: st.Cycles})
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

package core_test

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/resilience"
)

// configField locates one float or duration field of core.Config by its
// reflect index path; Name is its dotted path, as in "P2PBurst.BadLoss".
type configField struct {
	Name  string
	Index []int
}

// configFields lists Config's fields of type want, the burst-loss models'
// and the resilience policy's included.
func configFields(want reflect.Type) []configField {
	var out []configField
	var visit func(typ reflect.Type, prefix string, index []int)
	visit = func(typ reflect.Type, prefix string, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			at := append(append([]int(nil), index...), i)
			switch {
			case f.Type.Kind() == reflect.Struct:
				visit(f.Type, prefix+f.Name+".", at)
			case f.Type == want:
				out = append(out, configField{Name: prefix + f.Name, Index: at})
			}
		}
	}
	visit(reflect.TypeOf(core.Config{}), "", nil)
	return out
}

// TestConfigValidationRejectsNaN sets each float field of Config, the
// burst-loss models' and the resilience policy's included, to NaN on a
// configuration that turns every mechanism on, so that the run reads the
// field: Validate and New must both refuse it. A bound written x < lo or
// x > hi is false for NaN and lets it through.
func TestConfigValidationRejectsNaN(t *testing.T) {
	base := experiments.Tiny()
	base.Mobility = core.MobilityManhattan
	base.Delivery = core.DeliveryHybrid
	base.EnableSpillover = true
	base.LowActivityFraction = 0.2
	base.HotspotShiftEvery = time.Minute
	base.DataUpdateRate = 1
	base.DiscProb = 0.1
	base.ServiceAreaRadius = 400
	base.P2PLossProb, base.P2PBitErrorRate = 0.01, 1e-6
	base.UplinkLossProb, base.DownlinkLossProb = 0.01, 0.01
	burst := network.BurstFaults{GoodToBad: 0.01, BadToGood: 0.5, GoodLoss: 0.01, BadLoss: 0.5}
	base.P2PBurst, base.UplinkBurst, base.DownlinkBurst = burst, burst, burst
	base.Resilience = resilience.DefaultPolicy()
	if err := base.Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	for _, f := range configFields(reflect.TypeOf(0.0)) {
		t.Run(f.Name, func(t *testing.T) {
			cfg := base
			reflect.ValueOf(&cfg).Elem().FieldByIndex(f.Index).SetFloat(math.NaN())
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted NaN")
			}
			if _, err := core.New(cfg); err == nil {
				t.Error("New accepted NaN")
			}
		})
	}
}

// pick returns the field named name, or for any other non-empty name one
// chosen by its hash, so that every input the fuzzer mutates sets a field.
// The empty name sets none.
func pick(fields []configField, name string) (configField, bool) {
	if name == "" {
		return configField{}, false
	}
	for _, f := range fields {
		if f.Name == name {
			return f, true
		}
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return fields[h.Sum32()%uint32(len(fields))], true
}

// FuzzConfigValidate requires Validate to be the one gate of core.New:
// whenever Validate accepts a configuration, New builds it without an error
// and without panicking. Each input starts from experiments.Tiny(); mode
// picks the scheme, the mobility and delivery models and spillover, which
// decide what Validate checks; then two float fields and one duration field,
// named by the fuzzer, take the values it draws, NaN, infinities and
// negatives included. Counts, sizes and SigBits stay Tiny's, so no input
// can make New allocate without bound. The simulation is not run: a valid
// but tiny period, such as a 1ns explicit-update interval, makes a run's
// event count unbounded. The seed corpus under testdata holds the NaN,
// zero-period, street-spacing and low-activity-overflow cases Validate
// once let through.
func FuzzConfigValidate(f *testing.F) {
	floats, durations := configFields(reflect.TypeOf(0.0)), configFields(reflect.TypeOf(time.Duration(0)))
	f.Fuzz(func(t *testing.T, mode uint8, f1 string, v1 float64, f2 string, v2 float64, d string, dv int64) {
		cfg := experiments.Tiny()
		schemes := core.Schemes()
		cfg.Scheme = schemes[int(mode>>4)%len(schemes)]
		if mode&1 != 0 {
			cfg.Mobility = core.MobilityManhattan
		}
		cfg.Delivery = core.DeliveryModel((mode >> 1 & 3) % 3)
		cfg.EnableSpillover = mode&8 != 0
		v := reflect.ValueOf(&cfg).Elem()
		if fld, ok := pick(floats, f1); ok {
			v.FieldByIndex(fld.Index).SetFloat(v1)
		}
		if fld, ok := pick(floats, f2); ok {
			v.FieldByIndex(fld.Index).SetFloat(v2)
		}
		if fld, ok := pick(durations, d); ok {
			v.FieldByIndex(fld.Index).SetInt(dv)
		}
		if cfg.Validate() != nil {
			return
		}
		if _, err := core.New(cfg); err != nil {
			t.Fatalf("Validate accepted a config core.New rejects: %v\n%+v", err, cfg)
		}
	})
}

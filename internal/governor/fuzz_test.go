package governor

import (
	"reflect"
	"testing"

	"flextm/internal/cache"
	"flextm/internal/signature"
	"flextm/internal/telemetry"
	"flextm/internal/tmesi"
)

// FuzzParseLadder: a -govern-ladder spec comes from the command line. Any
// input either errors or yields a ladder whose spec round-trips, and each
// of whose sig rungs widens the paper's geometry to one that Validate
// accepts or that WidenSignatures refuses, without a panic.
func FuzzParseLadder(f *testing.F) {
	for _, spec := range []string{
		LadderSpec(DefaultLadder()),
		"cm:Karma,backoff:2,admit:3,sig:8,serialize",
		"admit, sig:2 ,serialize",
		"sig:3",
		"sig:1024",
		"sig:4611686018427387904",
		"backoff:+4,cm:Polka",
	} {
		f.Add(spec)
	}
	cfg := tmesi.DefaultConfig()
	cfg.Cores = 2
	cfg.L1 = cache.Config{Sets: 4, Ways: 2, VictimSize: 2}
	cfg.L2Sets, cfg.L2Ways = 4, 2
	sys := tmesi.New(cfg)
	sys.SetTelemetry(telemetry.New(cfg.Cores))
	f.Fuzz(func(t *testing.T, spec string) {
		ladder, err := ParseLadder(spec)
		if err != nil {
			return
		}
		again, err := ParseLadder(LadderSpec(ladder))
		if err != nil || !reflect.DeepEqual(again, ladder) || LadderSpec(again) != LadderSpec(ladder) {
			t.Fatalf("%q: spec %q does not round-trip (%v)", spec, LadderSpec(ladder), err)
		}
		for _, a := range ladder {
			if a.Kind != ActSigWiden {
				continue
			}
			next := signature.DefaultConfig()
			next.Bits *= a.Scale
			if next.Validate() == nil {
				continue
			}
			if sys.WidenSignatures(next) == nil {
				t.Fatalf("%q: WidenSignatures(%+v) applied a geometry Validate rejects", spec, next)
			}
			if sys.Config().Sig != cfg.Sig {
				t.Fatalf("%q: refused widen changed the geometry to %+v", spec, sys.Config().Sig)
			}
		}
	})
}

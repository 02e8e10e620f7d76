package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"hef/internal/hashes"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// slowPathTemplates is every operator template the optimizer searches over —
// the four engine kernels plus the two hash kernels.
func slowPathTemplates() []struct {
	label string
	tmpl  *hid.Template
} {
	return []struct {
		label string
		tmpl  *hid.Template
	}{
		{"filter", FilterTemplate(2)},
		{"probe", ProbeTemplate(1 << 20)},
		{"agg", GroupAggTemplate(64 << 10)},
		{"bloom", BloomTemplate(1 << 18)},
		{"murmur", hashes.MurmurTemplate()},
		{"crc64", hashes.CRC64Template()},
	}
}

// TestSlowPathRunIntoZeroAllocs pins the slow path's allocation hygiene on
// production programs: after one warm-up run, RunInto on the translated
// hybrid form of every engine template must not allocate — on any machine
// model, with the steady-state machinery both off and on (the on case
// covers the replay recorder's arenas and the cache journal).
func TestSlowPathRunIntoZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("many warm-up simulations")
	}
	node := translator.Node{V: 1, S: 1, P: 2}
	for _, cpuName := range []string{"silver", "gold", "neoverse", "zen"} {
		cpu, err := isa.ByName(cpuName)
		if err != nil {
			t.Fatalf("cpu %q: %v", cpuName, err)
		}
		for _, tc := range slowPathTemplates() {
			out, err := translator.Translate(tc.tmpl, node,
				translator.Options{Width: cpu.NativeWidth(), CPU: cpu})
			if err != nil {
				t.Fatalf("%s/%s: translate: %v", cpuName, tc.label, err)
			}
			for _, fast := range []bool{false, true} {
				sim := uarch.NewSim(cpu)
				sim.SetFastPath(fast)
				var res uarch.Result
				// Several warm-up runs: reused arenas (ring digests, replay
				// recordings, journal save-sets) grow to their high-water
				// mark over the first few runs because random-address
				// programs draw fresh lines each run.
				for i := 0; i < 12; i++ {
					if err := sim.RunInto(&res, out.Program, 512); err != nil {
						t.Fatalf("%s/%s fast=%v: warm-up: %v", cpuName, tc.label, fast, err)
					}
				}
				avg := testing.AllocsPerRun(5, func() {
					if err := sim.RunInto(&res, out.Program, 512); err != nil {
						t.Fatal(err)
					}
				})
				if avg > 0 {
					t.Errorf("%s/%s fast=%v: RunInto allocates %.1f objects per call after warm-up, want 0",
						cpuName, tc.label, fast, avg)
				}
			}
		}
	}
}

// TestSlowPathReplayDifferential is the production-program counterpart of
// the uarch package's replay tests: on every engine template × machine
// model, back-to-back runs with the steady-state machinery enabled must
// match the cycle-by-cycle walk bit for bit — including the cache
// hierarchy's access clock, which the second run inherits from the first.
func TestSlowPathReplayDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("many slow-path simulations")
	}
	node := translator.Node{V: 1, S: 1, P: 2}
	const iters = 2048
	for _, cpuName := range []string{"silver", "gold", "neoverse", "zen"} {
		cpu, err := isa.ByName(cpuName)
		if err != nil {
			t.Fatalf("cpu %q: %v", cpuName, err)
		}
		for _, tc := range slowPathTemplates() {
			out, err := translator.Translate(tc.tmpl, node,
				translator.Options{Width: cpu.NativeWidth(), CPU: cpu})
			if err != nil {
				t.Fatalf("%s/%s: translate: %v", cpuName, tc.label, err)
			}
			ss := uarch.NewSim(cpu)
			ss.SetFastPath(false)
			fs := uarch.NewSim(cpu)
			for run := 0; run < 2; run++ {
				slow, err := ss.Run(out.Program, iters)
				if err != nil {
					t.Fatalf("%s/%s run %d: slow: %v", cpuName, tc.label, run, err)
				}
				fast, err := fs.Run(out.Program, iters)
				if err != nil {
					t.Fatalf("%s/%s run %d: fast: %v", cpuName, tc.label, run, err)
				}
				if !reflect.DeepEqual(slow, fast) {
					t.Errorf("%s/%s run %d: diverged\nslow: %+v\nfast: %+v",
						cpuName, tc.label, run, slow, fast)
				}
				if ss.Hierarchy().AccessNo() != fs.Hierarchy().AccessNo() {
					t.Errorf("%s/%s run %d: hierarchy access clocks diverged: slow %d fast %d",
						cpuName, tc.label, run, ss.Hierarchy().AccessNo(), fs.Hierarchy().AccessNo())
				}
			}
		}
	}
}

// slowPathGolden pins the exact bytes the cycle-by-cycle simulator produces
// for every slowPathTemplates program: one SHA-256 per machine model and
// template over the JSON-encoded Result and the hierarchy's access clock of
// every (node, perturbation, fast path, back-to-back run) combination. The
// values were recorded before the scheduler's ready lists were grouped by
// issue fate and the stream prefetcher's table was indexed; both rewrites
// must leave them unchanged. Never regenerate them to make a change pass.
var slowPathGolden = map[string]string{
	"silver/filter":   "1e9203d4b58217be65854adc53ef9c96e0794df0f8ce8873c684f756397da2c0",
	"silver/probe":    "35c8220cabe8b3e82fdf098a0aaafd1a6089a61cae354f3c3a7d4411efcdc071",
	"silver/agg":      "8b1650a42a761aab90913e4e578b3b2c9b8b7d074ae3a3de19fed7627ee65ffa",
	"silver/bloom":    "4f9a3dc48c0febf304c4d50a49ee934247dea5c1b35c76cffe4fae0ee5fb51a6",
	"silver/murmur":   "aa6fca9485643fe45ed97fd330e48f273fb6a494298f8b0acfab6f51f14ef25c",
	"silver/crc64":    "f9b8275b9f8878cd47c33184b59144514fa933f74df4575e338d398e0c2f7ecf",
	"gold/filter":     "7967222afba24d3228882776857a136eb56a84fd7259eae7cbdfbb20d92eb5ca",
	"gold/probe":      "1a4a3bf39fb5af75b063bae9f4096a5974f18a4864f6e2784fffb7759beeed39",
	"gold/agg":        "edf3da90e90cc6866c9d5a63a5f1d8fef19f80437cace0c8551ebff63bb4f7b6",
	"gold/bloom":      "6250d283f2a85599b0ab96f7c31395211bd56f01c06d8c88eee8b340869fa1fc",
	"gold/murmur":     "c229450ec9884db38a362704e4a7c607a635a2d75612885954e5c14bac8e9f2a",
	"gold/crc64":      "1b51fd28fbfe353f491eb84723653f44480ea6fea22d9a216d681b0c17749b23",
	"neoverse/filter": "09ee31795b8511658c9cd27a2b5d084fd952e78a106734b9cbe61ffa29808afc",
	"neoverse/probe":  "537a4bf6f7db8968c5fb6a5ff77f01c9d73efb608ecdcd2b529ba36365f64cbf",
	"neoverse/agg":    "cd8f6fc075feb5a7cdf266dd534a9fb3622f4a9733c4258d04f0b4c6f88440b3",
	"neoverse/bloom":  "729073e2ae6d60ef42d5a0134e822b3c9c2e88934ed00dd95541b12be3f8b607",
	"neoverse/murmur": "0ff782cbcff12658e4be3ebf57b6684a9d11c39b289031fa5999be0b5b5c4fd2",
	"neoverse/crc64":  "3b859c76ab0c40c776af1eff70c34dffdd45ab99a770e503fe9b66474de12189",
	"zen/filter":      "02ec195036be4d7498c60fb2a5f6114d5b314ac2aab5c1045ef50505aa467a23",
	"zen/probe":       "81b5884645e08494087988d148a60dc7c523e8c706508e30bf0c37c033bfab33",
	"zen/agg":         "ca0892d4fc30d6edb8cdd1aa3e7b4ae734e2f85cfbba8b95c7f64de6181e12f0",
	"zen/bloom":       "d97130e585613bbb668eed9799f7ee119b9c3f75489a85bf038b2917357d4590",
	"zen/murmur":      "f3ccc6ef65e2272a005ac83b18071b934eb14207e2698625e39c14039782579e",
	"zen/crc64":       "aea6f38febddc234eca4caae99b83485b7093a0fb2c07b2d97e1b0523a0b859b",
}

// TestSlowPathGoldenBytes pins the slow path against recorded digests rather
// than against the fast path: TestSlowPathReplayDifferential compares two
// runs of the same scheduler and prefetcher, so a change to either would move
// both sides together and go unnoticed there.
func TestSlowPathGoldenBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("many slow-path simulations")
	}
	nodes := []translator.Node{
		{V: 0, S: 1, P: 1},
		{V: 1, S: 0, P: 1},
		{V: 1, S: 1, P: 2},
	}
	perturbs := []*uarch.Perturb{
		nil,
		{Seed: 7, LatJitter: 0.2, OccJitter: 0.3, PortFaultRate: 0.05},
	}
	const iters = 1024
	for _, cpuName := range []string{"silver", "gold", "neoverse", "zen"} {
		cpu, err := isa.ByName(cpuName)
		if err != nil {
			t.Fatalf("cpu %q: %v", cpuName, err)
		}
		for _, tc := range slowPathTemplates() {
			key := cpuName + "/" + tc.label
			h := sha256.New()
			for _, node := range nodes {
				out, err := translator.Translate(tc.tmpl, node,
					translator.Options{Width: cpu.NativeWidth(), CPU: cpu})
				if err != nil {
					t.Fatalf("%s at %v: translate: %v", key, node, err)
				}
				for _, p := range perturbs {
					for _, fast := range []bool{false, true} {
						sim := uarch.NewSim(cpu)
						sim.SetFastPath(fast)
						sim.SetPerturb(p)
						for run := 0; run < 2; run++ {
							res, err := sim.Run(out.Program, iters)
							if err != nil {
								t.Fatalf("%s at %v perturb=%v fast=%v run %d: %v", key, node, p != nil, fast, run, err)
							}
							b, err := json.Marshal(res)
							if err != nil {
								t.Fatalf("%s: encoding result: %v", key, err)
							}
							h.Write(b)
							h.Write(binary.LittleEndian.AppendUint64(nil, sim.Hierarchy().AccessNo()))
						}
					}
				}
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), slowPathGolden[key]; got != want {
				t.Errorf("%s: slow-path digest %s, want %s", key, got, want)
			}
		}
	}
}

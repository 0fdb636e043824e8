package vibguard

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, plus ablations of the design choices DESIGN.md calls
// out. Each benchmark runs the full experiment and reports the headline
// metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's result set. The dataset sizes here are the
// "quick" tier; cmd/benchgen runs the full tier and EXPERIMENTS.md records
// the output.

import (
	"math/rand"
	"testing"

	"vibguard/internal/attack"
	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/eval"
	"vibguard/internal/phoneme"
	"vibguard/internal/selection"
	"vibguard/internal/sensing"
)

// benchFigCfg keeps a single benchmark iteration around 10-20s.
func benchFigCfg() eval.FigureConfig {
	return eval.FigureConfig{Participants: 6, CommandsPerUser: 3, AttacksPerKind: 18, Seed: 1}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries, err := eval.TableI(10, 1)
		if err != nil {
			b.Fatal(err)
		}
		total, succ := 0, 0
		for _, e := range entries {
			if e.Tested {
				total += e.Attempts
				succ += e.Successes
			}
		}
		b.ReportMetric(float64(succ)/float64(total)*100, "success%")
	}
}

func BenchmarkTableII(b *testing.B) {
	cfg := selection.DefaultConfig()
	cfg.SpeakerCount, cfg.SegmentsPerSpeaker = 4, 2
	for i := 0; i < b.N; i++ {
		res, err := selection.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Selected)), "selected")
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmps, err := eval.Figure3([]string{"ae", "v"}, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		// Report the high-band attenuation of /ae/ in dB.
		var hiB, hiA float64
		for k, f := range cmps[0].Freqs {
			if f > 500 {
				hiB += cmps[0].Before[k]
				hiA += cmps[0].After[k]
			}
		}
		b.ReportMetric(hiB/hiA, "highband-atten-x")
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmps, err := eval.Figure4([]string{"ae", "v"}, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		var before, after float64
		for k, f := range cmps[0].Freqs {
			if f > 5 {
				before += cmps[0].Before[k]
				after += cmps[0].After[k]
			}
		}
		b.ReportMetric(before/after, "vib-atten-x")
	}
}

func BenchmarkFigure6(b *testing.B) {
	cfg := selection.DefaultConfig()
	cfg.SpeakerCount, cfg.SegmentsPerSpeaker = 4, 2
	for i := 0; i < b.N; i++ {
		res, err := selection.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		er := res.Stats["er"]
		if !er.Sensitive() {
			b.Fatal("/er/ must be barrier-effect sensitive")
		}
		b.ReportMetric(er.QUserMin/res.Alpha, "er-margin-x")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		freqs, power, err := eval.Figure7(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		var low, lowN, rest, restN float64
		for k, f := range freqs {
			if f > 0 && f <= 5 {
				low += power[k]
				lowN++
			} else if f > 5 {
				rest += power[k]
				restN++
			}
		}
		b.ReportMetric((low/lowN)/(rest/restN), "artifact-x")
	}
}

func BenchmarkPhonemeDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		direct, thru, err := eval.DetectionAccuracy(24, 2, 6, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(direct*100, "direct-acc%")
		b.ReportMetric(thru*100, "barrier-acc%")
	}
}

func benchFigure9(b *testing.B, kind attack.Kind) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sums, err := eval.Figure9(kind, benchFigCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sums[0].EER*100, "audio-EER%")
		b.ReportMetric(sums[1].EER*100, "vib-EER%")
		b.ReportMetric(sums[2].EER*100, "full-EER%")
		b.ReportMetric(sums[2].AUC, "full-AUC")
	}
}

func BenchmarkFigure9Random(b *testing.B)    { benchFigure9(b, attack.Random) }
func BenchmarkFigure9Replay(b *testing.B)    { benchFigure9(b, attack.Replay) }
func BenchmarkFigure9Synthesis(b *testing.B) { benchFigure9(b, attack.Synthesis) }
func BenchmarkFigure10Hidden(b *testing.B)   { benchFigure9(b, attack.HiddenVoice) }

func BenchmarkFigure11aVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := eval.Figure11a(benchFigCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Method == detector.MethodFull && c.Label == "85dB" {
				b.ReportMetric(c.EER*100, "full-85dB-EER%")
			}
		}
	}
}

func BenchmarkFigure11bMaterial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := eval.Figure11b(benchFigCfg())
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, c := range cells {
			if c.EER > worst {
				worst = c.EER
			}
		}
		b.ReportMetric(worst*100, "worst-EER%")
	}
}

func BenchmarkFigure11cDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := eval.Figure11c(benchFigCfg())
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, c := range cells {
			if c.EER > worst {
				worst = c.EER
			}
		}
		b.ReportMetric(worst*100, "worst-EER%")
	}
}

func BenchmarkFigure11dRooms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := eval.Figure11d(benchFigCfg())
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, c := range cells {
			if c.EER > worst {
				worst = c.EER
			}
		}
		b.ReportMetric(worst*100, "worst-EER%")
	}
}

// --- Ablations of the design choices called out in DESIGN.md ---

// ablationEER measures the full system's replay-attack EER under a
// modified sensing configuration, scored on the parallel engine.
func ablationEER(b *testing.B, mutate func(*sensing.Config)) {
	b.Helper()
	cfg := benchFigCfg()
	ds, err := eval.BuildDataset(eval.DatasetConfig{
		Participants:    cfg.Participants,
		CommandsPerUser: cfg.CommandsPerUser,
		AttacksPerKind:  cfg.AttacksPerKind,
		Kinds:           []attack.Kind{attack.Replay},
		Conditions:      eval.StandardConditions(),
		Seed:            cfg.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	provider := &eval.OracleProvider{Selected: selection.CanonicalSelected()}
	for i := 0; i < b.N; i++ {
		sc, err := eval.NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), provider, 99,
			eval.WithSensing(mutate))
		if err != nil {
			b.Fatal(err)
		}
		sum, err := sc.ScoreDataset("ablation", ds.Legit, ds.Attacks[attack.Replay])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.EER*100, "EER%")
	}
}

func BenchmarkAblationBaseline(b *testing.B) {
	ablationEER(b, nil)
}

func BenchmarkAblationNoCrop(b *testing.B) {
	ablationEER(b, func(c *sensing.Config) { c.CropHz = 0; c.HighPassHz = 0 })
}

func BenchmarkAblationNoNormalize(b *testing.B) {
	ablationEER(b, func(c *sensing.Config) { c.Normalize = false; c.BinStandardize = false })
}

func BenchmarkAblationWindow32(b *testing.B) {
	ablationEER(b, func(c *sensing.Config) { c.FFTSize = 32; c.HopSize = 8 })
}

func BenchmarkAblationWindow128(b *testing.B) {
	ablationEER(b, func(c *sensing.Config) { c.FFTSize = 128; c.HopSize = 32 })
}

// BenchmarkAblationNoSync measures the cost of skipping the Eq. (5)
// synchronization: the wearable recording keeps its network-delay offset.
func BenchmarkAblationNoSync(b *testing.B) {
	cfg := benchFigCfg()
	ds, err := eval.BuildDataset(eval.DatasetConfig{
		Participants:    cfg.Participants,
		CommandsPerUser: cfg.CommandsPerUser,
		AttacksPerKind:  cfg.AttacksPerKind,
		Kinds:           []attack.Kind{attack.Replay},
		Conditions:      eval.StandardConditions(),
		Seed:            cfg.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	provider := &eval.OracleProvider{Selected: selection.CanonicalSelected()}
	for i := 0; i < b.N; i++ {
		sc, err := eval.NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), provider, 99, eval.WithoutSync())
		if err != nil {
			b.Fatal(err)
		}
		sum, err := sc.ScoreDataset("no-sync ablation", ds.Legit, ds.Attacks[attack.Replay])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.EER*100, "EER%")
	}
}

// --- Micro-benchmarks of the hot pipeline stages ---

func BenchmarkPipelineScore(b *testing.B) {
	gen, err := eval.NewGenerator(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := gen.Legit(0, 0, eval.DefaultCondition())
	if err != nil {
		b.Fatal(err)
	}
	provider := &eval.OracleProvider{Selected: selection.CanonicalSelected()}
	sc, err := eval.NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), provider, 1, eval.Workers(1))
	if err != nil {
		b.Fatal(err)
	}
	samples := []*eval.Sample{s}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.ScoreAll(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serial vs parallel dataset scoring (the PR-1 engine) ---

// datasetScoring builds the sweep-sized workload once.
func datasetScoring(b *testing.B) ([]*eval.Sample, []*eval.Sample) {
	b.Helper()
	cfg := benchFigCfg()
	ds, err := eval.BuildDataset(eval.DatasetConfig{
		Participants:    cfg.Participants,
		CommandsPerUser: cfg.CommandsPerUser,
		AttacksPerKind:  cfg.AttacksPerKind,
		Kinds:           []attack.Kind{attack.Replay},
		Seed:            cfg.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds.Legit, ds.Attacks[attack.Replay]
}

// BenchmarkDatasetScoringSerial scores the workload on one worker, in
// index order; BenchmarkDatasetScoringParallel on the default worker pool.
// The score vectors are bit-identical; only throughput differs.
func BenchmarkDatasetScoringSerial(b *testing.B)   { benchmarkDatasetScoring(b, 1) }
func BenchmarkDatasetScoringParallel(b *testing.B) { benchmarkDatasetScoring(b, 0) }

func benchmarkDatasetScoring(b *testing.B, workers int) {
	legit, attacks := datasetScoring(b)
	provider := &eval.OracleProvider{Selected: selection.CanonicalSelected()}
	sc, err := eval.NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), provider, 1, eval.Workers(workers))
	if err != nil {
		b.Fatal(err)
	}
	n := len(legit) + len(attacks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.ScoreAll(legit); err != nil {
			b.Fatal(err)
		}
		if _, err := sc.ScoreAll(attacks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkCrossDomainSensing(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := device.NewFossilGen5()
	synth, err := phoneme.NewSynthesizer(phoneme.NewStudioVoicePool(1, 1)[0])
	if err != nil {
		b.Fatal(err)
	}
	utt, err := synth.Synthesize(phoneme.Commands()[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.SenseVibration(utt.Samples, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extensions beyond the paper's headline figures ---

// BenchmarkWearableComparison extends the device study: the full system's
// replay-attack EER on both smartwatch models.
func BenchmarkWearableComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := eval.WearableComparison(benchFigCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cells[0].Summary.EER*100, "fossil-EER%")
		b.ReportMetric(cells[1].Summary.EER*100, "moto-EER%")
	}
}

// BenchmarkBodyMotion validates the sub-5Hz crop's rejection of wearer
// body-motion interference.
func BenchmarkBodyMotion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := eval.BodyMotionRobustness(benchFigCfg(), []float64{0, 0.05})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cells[0].Summary.EER*100, "still-EER%")
		b.ReportMetric(cells[1].Summary.EER*100, "moving-EER%")
	}
}

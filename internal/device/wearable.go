package device

import (
	"fmt"
	"math/rand"

	"vibguard/internal/dsp"
)

// Wearable models a smartwatch: its microphone (recording the voice
// command), its built-in speaker, and its accelerometer. Cross-domain
// sensing replays audio through the speaker and captures the resulting
// chassis vibration with the accelerometer (Section IV-A).
type Wearable struct {
	// Name identifies the model, e.g. "Fossil Gen 5".
	Name string
	// Mic records the voice command at 16 kHz.
	Mic Microphone
	// Speaker is the built-in speaker used for vibration generation.
	Speaker Loudspeaker
	// Accel is the built-in accelerometer.
	Accel Accelerometer
}

// NewFossilGen5 returns the Fossil Gen 5 smartwatch profile used for most
// of the paper's experiments.
func NewFossilGen5() *Wearable {
	return &Wearable{
		Name:    "Fossil Gen 5",
		Mic:     NewMicrophone(16000),
		Speaker: NewWearableSpeaker(16000),
		Accel:   NewAccelerometer(),
	}
}

// NewMoto360 returns the Moto 360 2020 smartwatch profile (slightly
// different speaker band and sensor noise).
func NewMoto360() *Wearable {
	w := &Wearable{
		Name:    "Moto 360 2020",
		Mic:     NewMicrophone(16000),
		Speaker: NewWearableSpeaker(16000),
		Accel:   NewAccelerometer(),
	}
	w.Speaker.HighCutHz = 6000
	w.Accel.NoiseFloor = 1.5e-4
	w.Accel.ArtifactGain = 7.0
	return w
}

// Validate checks all component parameters.
func (w *Wearable) Validate() error {
	if err := w.Mic.Validate(); err != nil {
		return fmt.Errorf("wearable %s: %w", w.Name, err)
	}
	if err := w.Speaker.Validate(); err != nil {
		return fmt.Errorf("wearable %s: %w", w.Name, err)
	}
	if err := w.Accel.Validate(); err != nil {
		return fmt.Errorf("wearable %s: %w", w.Name, err)
	}
	return nil
}

// SenseVibration performs one cross-domain sensing pass: it replays the
// given 16 kHz audio through the built-in speaker and captures the induced
// conductive vibration with the accelerometer, returning the 200 Hz
// vibration signal. It is Drive followed by the accelerometer's AddNoise.
func (w *Wearable) SenseVibration(audio []float64, rng *rand.Rand) ([]float64, error) {
	d, err := w.Drive(audio)
	if err != nil {
		return nil, err
	}
	return w.Accel.AddNoise(d, rng), nil
}

// Drive runs the deterministic part of a sensing pass: the speaker replay
// and the accelerometer's noise-free response (see Accelerometer.Drive),
// both on one transform buffer that holds the emitted signal in between.
func (w *Wearable) Drive(audio []float64) (Drive, error) {
	if err := w.Validate(); err != nil {
		return Drive{}, err
	}
	if len(audio) == 0 {
		return Drive{}, nil
	}
	b := dsp.NewShapeBuffer(audio)
	defer b.Release()
	w.Speaker.render(b)
	return w.Accel.drive(b, w.Speaker.SampleRate, func() []float64 {
		emitted, _ := w.Speaker.Render(audio)
		return emitted
	}), nil
}

// Record captures a voice command with the wearable's microphone.
func (w *Wearable) Record(pressure []float64, rng *rand.Rand) ([]float64, error) {
	rec, err := w.Mic.Record(pressure, rng)
	if err != nil {
		return nil, fmt.Errorf("wearable %s: %w", w.Name, err)
	}
	return rec, nil
}

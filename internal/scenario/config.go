package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// FileConfig is the JSON representation of a scenario, with durations in
// seconds and the scheme by name, so experiment configurations can live
// in version-controlled files. A field that is 0 or omitted takes the
// scenario default (Options.WithDefaults); where that default is not
// zero, as for the speeds, pause and warmup, a zero cannot be asked for:
//
//	{
//	  "scheme": "pcmac",
//	  "nodes": 50,
//	  "offered_load_kbps": 400,
//	  "duration_s": 200,
//	  "flows": 10,
//	  "seed": 1
//	}
type FileConfig struct {
	Scheme             string       `json:"scheme"`
	Nodes              int          `json:"nodes,omitempty"`
	FieldW             float64      `json:"field_w_m,omitempty"`
	FieldH             float64      `json:"field_h_m,omitempty"`
	SpeedMin           float64      `json:"speed_min_mps,omitempty"` // 0 or omitted: the default 3 m/s
	SpeedMax           float64      `json:"speed_max_mps,omitempty"` // 0 or omitted: SpeedMin
	PauseS             float64      `json:"pause_s,omitempty"`       // 0 or omitted: the default 3 s; a zero pause cannot be asked for
	Flows              int          `json:"flows,omitempty"`
	Traffic            string       `json:"traffic,omitempty"`
	BurstFactor        float64      `json:"burst_factor,omitempty"`
	ParetoShape        float64      `json:"pareto_shape,omitempty"`
	ResponseBytes      int          `json:"response_bytes,omitempty"`
	Topology           string       `json:"topology,omitempty"`
	OfferedLoadKbps    float64      `json:"offered_load_kbps,omitempty"`
	PacketBytes        int          `json:"packet_bytes,omitempty"`
	DurationS          float64      `json:"duration_s,omitempty"`
	WarmupS            float64      `json:"warmup_s,omitempty"` // 0 or omitted: the default 5 s
	Seed               int64        `json:"seed,omitempty"`
	SafetyFactor       float64      `json:"safety_factor,omitempty"`
	HistoryExpiryS     float64      `json:"history_expiry_s,omitempty"`
	CtrlBandwidthBps   float64      `json:"ctrl_bandwidth_bps,omitempty"`
	DisableCtrlChannel bool         `json:"disable_ctrl_channel,omitempty"`
	DisableThreeWay    bool         `json:"disable_three_way,omitempty"`
	ShadowingSigmaDB   float64      `json:"shadowing_sigma_db,omitempty"`
	EnergyProfile      string       `json:"energy_profile,omitempty"`
	BatteryJ           float64      `json:"battery_j,omitempty"`
	FlowRateSpreadPct  float64      `json:"flow_rate_spread_pct,omitempty"`
	RTSThresholdBytes  int          `json:"rts_threshold_bytes,omitempty"`
	Static             [][2]float64 `json:"static,omitempty"`
	FlowPairs          [][2]uint16  `json:"flow_pairs,omitempty"`
}

// Options converts the file form to runnable, validated Options.
func (fc FileConfig) Options() (Options, error) {
	o, err := fc.options()
	if err != nil {
		return Options{}, err
	}
	if err := validate(o); err != nil {
		return Options{}, err
	}
	return o, nil
}

// options converts the file form to Options without validating them.
func (fc FileConfig) options() (Options, error) {
	scheme, err := mac.ParseScheme(fc.Scheme)
	if err != nil {
		return Options{}, err
	}
	o := Options{
		Scheme:             scheme,
		Nodes:              fc.Nodes,
		FieldW:             fc.FieldW,
		FieldH:             fc.FieldH,
		SpeedMin:           fc.SpeedMin,
		SpeedMax:           fc.SpeedMax,
		Pause:              sim.DurationOf(fc.PauseS),
		Flows:              fc.Flows,
		Traffic:            fc.Traffic,
		BurstFactor:        fc.BurstFactor,
		ParetoShape:        fc.ParetoShape,
		ResponseBytes:      fc.ResponseBytes,
		Topology:           fc.Topology,
		OfferedLoadKbps:    fc.OfferedLoadKbps,
		PacketBytes:        fc.PacketBytes,
		Duration:           sim.DurationOf(fc.DurationS),
		Warmup:             sim.DurationOf(fc.WarmupS),
		Seed:               fc.Seed,
		SafetyFactor:       fc.SafetyFactor,
		HistoryExpiry:      sim.DurationOf(fc.HistoryExpiryS),
		CtrlBandwidthBps:   fc.CtrlBandwidthBps,
		DisableCtrlChannel: fc.DisableCtrlChannel,
		DisableThreeWay:    fc.DisableThreeWay,
		ShadowingSigmaDB:   fc.ShadowingSigmaDB,
		EnergyProfile:      fc.EnergyProfile,
		BatteryJ:           fc.BatteryJ,
		FlowRateSpreadPct:  fc.FlowRateSpreadPct,
		RTSThresholdBytes:  fc.RTSThresholdBytes,
	}
	for _, p := range fc.Static {
		o.Static = append(o.Static, geom.Point{X: p[0], Y: p[1]})
	}
	for _, fp := range fc.FlowPairs {
		o.FlowPairs = append(o.FlowPairs, [2]packet.NodeID{packet.NodeID(fp[0]), packet.NodeID(fp[1])})
	}
	return o, nil
}

// Validate rejects configurations that would only fail (or silently
// run with an empty measurement window) deep inside a run. Zero fields
// are legal — they take the paper's defaults.
func Validate(o Options) error { return validate(o) }

// validate rejects configurations that would only fail deep inside a
// run.
func validate(o Options) error {
	// Checks on a field with a default read the defaulted value, so a
	// zero that defaults cannot slip past a bound it then breaks.
	d := o.WithDefaults()
	switch {
	case o.Nodes < 0 || o.Flows < 0:
		return fmt.Errorf("scenario: negative nodes/flows")
	case o.Nodes == 1 && len(o.Static) == 0:
		return fmt.Errorf("scenario: need at least two nodes for a flow")
	case !(o.FieldW >= 0 && o.FieldH >= 0) || math.IsInf(o.FieldW, 0) || math.IsInf(o.FieldH, 0):
		return fmt.Errorf("scenario: field %g x %g m must be finite and non-negative", o.FieldW, o.FieldH)
	case !(d.SpeedMin > 0 && d.SpeedMax >= d.SpeedMin) || math.IsInf(d.SpeedMax, 0):
		return fmt.Errorf("scenario: speed range [%g, %g] m/s must be finite, positive and ordered", d.SpeedMin, d.SpeedMax)
	case o.Pause < 0:
		return fmt.Errorf("scenario: negative waypoint pause")
	case !(o.OfferedLoadKbps >= 0):
		return fmt.Errorf("scenario: offered load %g kbps must be non-negative", o.OfferedLoadKbps)
	case o.PacketBytes < 0:
		return fmt.Errorf("scenario: negative packet bytes")
	case o.Duration < 0 || o.Warmup < 0:
		return fmt.Errorf("scenario: negative duration/warmup")
	case d.Warmup >= d.Duration:
		return fmt.Errorf("scenario: warmup %gs >= duration %gs leaves no measurement window", d.Warmup.Seconds(), d.Duration.Seconds())
	case !(o.FlowRateSpreadPct >= 0 && o.FlowRateSpreadPct < 200):
		return fmt.Errorf("scenario: flow rate spread %g%% must lie in [0, 200)", o.FlowRateSpreadPct)
	case !(o.ShadowingSigmaDB >= 0):
		return fmt.Errorf("scenario: shadowing sigma %g dB must be non-negative", o.ShadowingSigmaDB)
	case !(o.BurstFactor == 0 || o.BurstFactor > 1):
		return fmt.Errorf("scenario: burst factor %g must exceed 1", o.BurstFactor)
	case !(o.ParetoShape == 0 || o.ParetoShape > 1):
		return fmt.Errorf("scenario: pareto shape %g must exceed 1", o.ParetoShape)
	case o.ResponseBytes < 0:
		return fmt.Errorf("scenario: negative response bytes")
	case !(o.SafetyFactor >= 0) || math.IsInf(o.SafetyFactor, 0):
		return fmt.Errorf("scenario: safety factor %g must be finite and non-negative", o.SafetyFactor)
	case o.HistoryExpiry < 0:
		return fmt.Errorf("scenario: negative history expiry")
	case !(o.CtrlBandwidthBps >= 0):
		return fmt.Errorf("scenario: control-channel bandwidth %g bps must be non-negative", o.CtrlBandwidthBps)
	case !(o.BatteryJ >= 0):
		return fmt.Errorf("scenario: negative battery capacity %g J", o.BatteryJ)
	case o.RTSThresholdBytes < 0:
		return fmt.Errorf("scenario: negative RTS threshold %d bytes", o.RTSThresholdBytes)
	}
	if _, err := traffic.ParseModel(o.Traffic); err != nil {
		return err
	}
	if _, err := energy.ParseProfile(o.EnergyProfile); err != nil {
		return err
	}
	if err := CheckTopology(o.Topology); err != nil {
		return err
	}
	if err := checkLongestLink(d); err != nil {
		return err
	}
	// Reject flow counts that exceed the ordered pairs of the defaulted
	// node count here, at spec time, rather than letting PickPairs
	// panic inside a campaign worker mid-run. WithDefaults itself
	// supplies the effective counts (Static overriding Nodes, the
	// paper's 50-node default) so this check can't drift from them; an
	// explicit FlowPairs list bypasses pair picking entirely.
	if len(o.FlowPairs) == 0 && o.Flows > 0 {
		if maxPairs := d.Nodes * (d.Nodes - 1); d.Flows > maxPairs {
			return fmt.Errorf("scenario: %d flows exceed the %d ordered pairs of %d nodes", d.Flows, maxPairs, d.Nodes)
		}
	}
	// PCMAC's Figure 7 control frame addresses nodes in an 8-bit field;
	// reject oversized populations at spec time instead of failing on
	// node 256 deep inside Build.
	if o.Scheme == mac.PCMAC && !o.DisableCtrlChannel {
		if d.Nodes > 256 {
			return fmt.Errorf("scenario: pcmac control frames address 8-bit node IDs; %d nodes need disable_ctrl_channel or <= 256", d.Nodes)
		}
	}
	for _, fp := range o.FlowPairs {
		if fp[0] == fp[1] {
			return fmt.Errorf("scenario: self-flow %v", fp[0])
		}
	}
	return nil
}

// checkLongestLink rejects layouts whose longest link takes longer
// than sim.MaxSpanDelay at the speed of light, the most a frame's
// arrivals can be delayed (sim.ScheduleSpans). That link is the
// diagonal of the box covering the field and every Static point:
// generated and waypoint placements stay inside the field. It reads
// defaulted options.
func checkLongestLink(d Options) error {
	lo, hi := geom.Point{}, geom.Point{X: d.FieldW, Y: d.FieldH}
	for _, p := range d.Static {
		lo = geom.Point{X: min(lo.X, p.X), Y: min(lo.Y, p.Y)}
		hi = geom.Point{X: max(hi.X, p.X), Y: max(hi.Y, p.Y)}
	}
	diag := lo.Dist(hi)
	// sim.DurationOf's arithmetic, kept in floating point so a huge or
	// NaN length cannot overflow the integer conversion.
	if ns := math.Round(diag / phys.SpeedOfLight * float64(sim.Second)); !(ns <= float64(sim.MaxSpanDelay)) {
		return fmt.Errorf("scenario: the %g m diagonal of the layout takes %g ns to propagate, more than the %d ns limit", diag, ns, sim.MaxSpanDelay)
	}
	return nil
}

// LoadConfig reads a scenario from a JSON file, decoded strictly
// (DecodeStrict) so a typo'd key fails instead of running on defaults.
func LoadConfig(path string) (Options, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Options{}, fmt.Errorf("scenario: %w", err)
	}
	var fc FileConfig
	if err := DecodeStrict(b, &fc); err != nil {
		return Options{}, fmt.Errorf("scenario: parsing %s: %w", path, err)
	}
	return fc.Options()
}

// removedFields names the spec and config fields earlier builds
// accepted, with the reason each went, so a stale file fails with the
// fix instead of a bare "unknown field".
var removedFields = []struct{ name, why string }{
	{"regions", "runs always use the sequential scheduler"},
	{"event_queue", "runs always use the calendar event queue"},
	{"event_queues", "runs always use the calendar event queue"},
}

// DecodeStrict decodes exactly one JSON value from b into v. Unknown
// fields (the usual symptom of a typo'd key) and trailing data are
// errors; a field in removedFields is named as removed.
func DecodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		for _, f := range removedFields {
			if err.Error() == fmt.Sprintf("json: unknown field %q", f.name) {
				return fmt.Errorf("field %q was removed (%s); delete it", f.name, f.why)
			}
		}
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// ToFileConfig converts Options to the JSON file form (inverse of
// FileConfig.Options for the representable fields).
func ToFileConfig(o Options) FileConfig {
	fc := FileConfig{
		Scheme:             o.Scheme.String(),
		Nodes:              o.Nodes,
		FieldW:             o.FieldW,
		FieldH:             o.FieldH,
		SpeedMin:           o.SpeedMin,
		SpeedMax:           o.SpeedMax,
		PauseS:             o.Pause.Seconds(),
		Flows:              o.Flows,
		Traffic:            o.Traffic,
		BurstFactor:        o.BurstFactor,
		ParetoShape:        o.ParetoShape,
		ResponseBytes:      o.ResponseBytes,
		Topology:           o.Topology,
		OfferedLoadKbps:    o.OfferedLoadKbps,
		PacketBytes:        o.PacketBytes,
		DurationS:          o.Duration.Seconds(),
		WarmupS:            o.Warmup.Seconds(),
		Seed:               o.Seed,
		SafetyFactor:       o.SafetyFactor,
		HistoryExpiryS:     o.HistoryExpiry.Seconds(),
		CtrlBandwidthBps:   o.CtrlBandwidthBps,
		DisableCtrlChannel: o.DisableCtrlChannel,
		DisableThreeWay:    o.DisableThreeWay,
		ShadowingSigmaDB:   o.ShadowingSigmaDB,
		EnergyProfile:      o.EnergyProfile,
		BatteryJ:           o.BatteryJ,
		FlowRateSpreadPct:  o.FlowRateSpreadPct,
		RTSThresholdBytes:  o.RTSThresholdBytes,
	}
	for _, p := range o.Static {
		fc.Static = append(fc.Static, [2]float64{p.X, p.Y})
	}
	for _, fp := range o.FlowPairs {
		fc.FlowPairs = append(fc.FlowPairs, [2]uint16{uint16(fp[0]), uint16(fp[1])})
	}
	return fc
}

// Overlay returns base with patch's set fields overriding it: a field
// is set when FileConfig's omitempty tags would encode it, and an empty
// scheme keeps the base's. The options FileConfig cannot carry
// (TrafficStart, Trace, TimelineBucket, CollectSimStats) keep the base's
// values.
// The result is not validated: a campaign validates each run only after
// its explicit axes have been applied on top.
func Overlay(base Options, patch FileConfig) (Options, error) {
	fc := ToFileConfig(base)
	if patch.Scheme == "" {
		patch.Scheme = fc.Scheme
	}
	b, err := json.Marshal(patch)
	if err != nil {
		return Options{}, fmt.Errorf("scenario: %w", err)
	}
	if err := json.Unmarshal(b, &fc); err != nil {
		return Options{}, fmt.Errorf("scenario: %w", err)
	}
	o, err := fc.options()
	if err != nil {
		return Options{}, err
	}
	o.TrafficStart, o.Trace = base.TrafficStart, base.Trace
	o.TimelineBucket, o.CollectSimStats = base.TimelineBucket, base.CollectSimStats
	return o, nil
}

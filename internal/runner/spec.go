package runner

import (
	"fmt"
	"os"

	"repro/internal/mac"
	"repro/internal/scenario"
)

// SpecVersion is the current campaign spec schema version. Specs carry
// it as "version" so a daemon can reject a spec written for a future
// schema with an actionable error instead of silently dropping fields;
// a missing version means "pre-versioning spec" and is accepted as the
// current schema for backward compatibility.
const SpecVersion = 1

// CampaignFile is the JSON form of a Campaign, so whole evaluation
// grids live in version-controlled spec files:
//
//	{
//	  "version": 1,
//	  "name": "fig8",
//	  "base": {"scheme": "basic", "duration_s": 100, "warmup_s": 5},
//	  "schemes": ["basic", "pcmac", "scheme1", "scheme2"],
//	  "loads_kbps": [200, 300, 400, 500],
//	  "reps": 3
//	}
type CampaignFile struct {
	Version  int                 `json:"version,omitempty"`
	Name     string              `json:"name"`
	Base     scenario.FileConfig `json:"base"`
	Variants []Variant           `json:"variants,omitempty"`
	Schemes  []string            `json:"schemes,omitempty"`
	Axes
}

// Campaign converts the file form to a runnable Campaign.
func (cf CampaignFile) Campaign() (Campaign, error) {
	if cf.Version != 0 && cf.Version != SpecVersion {
		return Campaign{}, fmt.Errorf("runner: spec %q has version %d; this build understands version %d", cf.Name, cf.Version, SpecVersion)
	}
	base := cf.Base
	if base.Scheme == "" {
		// The base scheme is irrelevant when a schemes axis is given;
		// FileConfig.Options still needs a valid name.
		base.Scheme = mac.Basic.String()
	}
	opts, err := base.Options()
	if err != nil {
		return Campaign{}, fmt.Errorf("runner: spec %q: %w", cf.Name, err)
	}
	c := Campaign{Name: cf.Name, Base: opts, Variants: cf.Variants, Axes: cf.Axes}
	for _, name := range cf.Schemes {
		s, err := mac.ParseScheme(name)
		if err != nil {
			return Campaign{}, fmt.Errorf("runner: spec %q: %w", cf.Name, err)
		}
		c.Schemes = append(c.Schemes, s)
	}
	return c, nil
}

// File converts a Campaign to its JSON file form (inverse of
// CampaignFile.Campaign for the representable fields).
func (c Campaign) File() CampaignFile {
	cf := CampaignFile{
		Version:  SpecVersion,
		Name:     c.Name,
		Base:     scenario.ToFileConfig(c.Base),
		Variants: c.Variants,
		Axes:     c.Axes,
	}
	for _, s := range c.Schemes {
		cf.Schemes = append(cf.Schemes, s.String())
	}
	return cf
}

// ParseCampaignFile strictly decodes a campaign spec: unknown fields
// (the usual symptom of a typo'd axis name), trailing garbage, and
// unsupported versions are all errors, phrased to tell the author what
// to fix. It is the single decode path for spec files and the daemon's
// POST /campaigns body.
func ParseCampaignFile(b []byte) (CampaignFile, error) {
	var cf CampaignFile
	if err := scenario.DecodeStrict(b, &cf); err != nil {
		return CampaignFile{}, fmt.Errorf("runner: campaign spec: %w", err)
	}
	if cf.Version != 0 && cf.Version != SpecVersion {
		return CampaignFile{}, fmt.Errorf("runner: campaign spec %q has version %d; this build understands version %d", cf.Name, cf.Version, SpecVersion)
	}
	return cf, nil
}

// LoadCampaign reads a campaign spec from a JSON file.
func LoadCampaign(path string) (Campaign, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Campaign{}, fmt.Errorf("runner: %w", err)
	}
	cf, err := ParseCampaignFile(b)
	if err != nil {
		return Campaign{}, fmt.Errorf("runner: parsing %s: %w", path, err)
	}
	return cf.Campaign()
}

package workload

import (
	"encoding/json"
	"fmt"
	"os"
)

// JSON configuration support: operators tune the synthetic ensemble (or
// describe their own) in a config file instead of editing Go code.
//
//	trace -outformat config > ensemble.json   # start from the Table 1 roster
//	$EDITOR ensemble.json
//	trace -in ensemble.json -out trace.csv

// MarshalJSON-friendly: Config and ServerProfile are plain structs, so the
// default encoding works; these helpers add file handling and validation.

// LoadConfig reads and validates a JSON ensemble configuration.
func LoadConfig(path string) (Config, error) {
	var cfg Config
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, fmt.Errorf("workload: %w", err)
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return cfg, fmt.Errorf("workload: parsing %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("workload: %s: %w", path, err)
	}
	return cfg, nil
}

// EncodeConfig renders cfg as indented JSON (for cmd/trace -outformat config).
func EncodeConfig(cfg Config) ([]byte, error) {
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return append(data, '\n'), nil
}

package main

import (
	_ "embed"
	"encoding/json"
)

// digests.json maps a video seed s to the SHA-256 of what
// `mrts-sweep -fig all -seed s` prints. Regenerate it with gen-digests.sh
// after a change that is meant to alter the figures.
//
//go:embed digests.json
var digestsJSON []byte

var referenceDigests = func() map[string]string {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		panic("perfbench: digests.json: " + err.Error())
	}
	return d
}()

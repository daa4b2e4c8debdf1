package triage

import (
	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// TUSize is the training unit's entry count, for the external tests.
const TUSize = tuSize

// Window returns the issued-line window of pc's training-unit entry.
func (p *Prefetcher) Window(pc mem.PC) *prefetch.Issued {
	return p.tu[mem.HashPC(pc, 16)%tuSize].issued
}

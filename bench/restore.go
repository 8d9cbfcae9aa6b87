package main

import (
	"os"
	"path/filepath"
)

// recordLengths returns the name and length of every regular file
// directly under dir.
func recordLengths(dir string) (map[string]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(entries))
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return nil, err
		}
		if info.Mode().IsRegular() {
			out[ent.Name()] = info.Size()
		}
	}
	return out, nil
}

// restoreLengths brings dir back to a recorded state after appends:
// files that grew are truncated to their recorded length and files
// that did not exist are removed, so the next reader sees the same
// bytes the recording did. It never rewrites content — only appends
// can be undone this way, which is all a store segment ever sees.
func restoreLengths(dir string, recorded map[string]int64) error {
	now, err := recordLengths(dir)
	if err != nil {
		return err
	}
	for name, size := range now {
		want, ok := recorded[name]
		switch {
		case !ok:
			err = os.Remove(filepath.Join(dir, name))
		case size != want:
			err = os.Truncate(filepath.Join(dir, name), want)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

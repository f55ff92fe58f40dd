//go:build race

package mapsvc

func init() { raceEnabled = true }

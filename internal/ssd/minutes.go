package ssd

// MinuteSeries accumulates the per-minute load series behind the paper's
// drive-occupancy analysis (Figures 8 and 9): 4 KiB-page read and write
// operation counts per trace minute. The zero value is ready to use.
type MinuteSeries struct {
	reads  []float64
	writes []float64
}

func (m *MinuteSeries) grow(minute int) {
	for len(m.reads) <= minute {
		m.reads = append(m.reads, 0)
		m.writes = append(m.writes, 0)
	}
}

// AddReads charges `pages` read operations to the given minute.
func (m *MinuteSeries) AddReads(minute int, pages float64) {
	if minute < 0 {
		return
	}
	m.grow(minute)
	m.reads[minute] += pages
}

// AddWrites charges `pages` write operations to the given minute.
func (m *MinuteSeries) AddWrites(minute int, pages float64) {
	if minute < 0 {
		return
	}
	m.grow(minute)
	m.writes[minute] += pages
}

// Loads densifies the series to at least totalMinutes entries (idle minutes
// appear with zero load, as in the paper's 10 080-minute accounting).
func (m *MinuteSeries) Loads(totalMinutes int) []MinuteLoad {
	n := len(m.reads)
	if totalMinutes > n {
		n = totalMinutes
	}
	out := make([]MinuteLoad, n)
	for i := range out {
		out[i].Minute = i
		if i < len(m.reads) {
			out[i].ReadPages = m.reads[i]
			out[i].WritePages = m.writes[i]
		}
	}
	return out
}

// ScaleLoads multiplies a load series by factor, returning a new slice.
// The synthetic workload is generated at 1/Scale of the paper's volume, so
// occupancy analysis scales the loads back up to paper volume before
// applying real device IOPS ratings.
func ScaleLoads(loads []MinuteLoad, factor float64) []MinuteLoad {
	out := make([]MinuteLoad, len(loads))
	for i, l := range loads {
		out[i] = MinuteLoad{Minute: l.Minute, ReadPages: l.ReadPages * factor, WritePages: l.WritePages * factor}
	}
	return out
}

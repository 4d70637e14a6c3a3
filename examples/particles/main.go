// Particles: a LAMMPS-style molecular-dynamics exchange (§3 of the
// paper): each rank keeps an array of particle records in GPU memory and
// an index list of the particles that migrated out of its sub-domain.
// A struct datatype describes one record (seven doubles and an integer
// type tag); an indexed-block datatype over it gathers exactly the
// migrating records — scattered, variable-position blocks — without any
// hand-written packing kernel.
//
//	go run ./examples/particles
package main

import (
	"fmt"
	"log"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
)

const (
	nParticles  = 100000
	recordBytes = 64 // x,y,z, vx,vy,vz, charge as doubles, then an int64 type
)

// migrating deterministically selects ~5% of particles as leaving the
// domain (every 19th slot), the paper's "array of indices of local
// particles that need to be communicated".
func migrating() []int {
	var idx []int
	for i := 0; i < nParticles; i += 19 {
		idx = append(idx, i)
	}
	return idx
}

func main() {
	world := mpi.NewWorld(mpi.Config{
		Ranks: []mpi.Placement{{Node: 0, GPU: 0}, {Node: 1, GPU: 0}}, // across InfiniBand
	})

	record := datatype.Struct([]int{7, 1}, []int64{0, 56}, []*datatype.Datatype{datatype.Float64, datatype.Int64})
	idx := migrating()
	ddt := datatype.IndexedBlock(1, idx, record)
	fmt.Printf("exchanging %d of %d particles (%d KB) as an indexed datatype with %d blocks\n",
		len(idx), nParticles, ddt.Size()>>10, ddt.NumBlocks())

	var sentImg, recvImg []byte
	world.Run(func(m *mpi.Rank) {
		particles := m.Malloc(int64(nParticles) * recordBytes)
		switch m.Rank() {
		case 0:
			mem.FillPattern(particles, 7)
			sentImg = image(ddt, particles)
			t0 := m.Now()
			m.Send(particles, ddt, 1, 1, 0)
			fmt.Printf("rank 0: indexed send over IB took %v (virtual)\n", m.Now()-t0)
		case 1:
			// The receiver appends the immigrants at the tail of its
			// array: a receive of whole records, with room for up to
			// twice as many as arrive. The request says how many did.
			room := 2 * len(idx)
			tail := particles.Slice(int64(nParticles-room)*recordBytes, int64(room)*recordBytes)
			r := m.Irecv(tail, record, room, 0, 0)
			r.Wait(m.Proc())
			got := r.GetCount(record)
			fmt.Printf("rank 1: %d records arrived\n", got)
			recvImg = append([]byte(nil), tail.Bytes()[:int64(got)*recordBytes]...)
		}
	})

	if len(sentImg) != len(recvImg) {
		log.Fatalf("size mismatch: %d vs %d", len(sentImg), len(recvImg))
	}
	for i := range sentImg {
		if sentImg[i] != recvImg[i] {
			log.Fatalf("particle byte %d differs", i)
		}
	}
	fmt.Printf("verified: %d migrated particle records arrived intact (indexed -> contiguous)\n", len(idx))
}

func image(dt *datatype.Datatype, buf mem.Buffer) []byte {
	c := datatype.NewConverter(dt, 1)
	out := make([]byte, c.Total())
	c.Pack(out, buf.Bytes())
	return out
}

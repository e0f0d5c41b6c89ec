package core

import "testing"

func TestSlotLayoutConstants(t *testing.T) {
	for slot := 0; slot < 5; slot++ {
		t0, tFin, gBase := Slot(slot)
		if t0 != 1+slot*10 || tFin != 2+slot*10 || gBase != uint32(slot)<<20 {
			t.Fatalf("Slot(%d) = (%d,%d,%d): layout convention changed", slot, t0, tFin, gBase)
		}
		tLo, tHi := SlotTables(slot)
		if tLo != t0 || tHi != t0+TablesPerSlot {
			t.Fatalf("SlotTables(%d) = [%d,%d)", slot, tLo, tHi)
		}
		gLo, gHi := SlotGroups(slot)
		if gLo != gBase || gHi != uint32(slot+1)<<GroupBitsPerSlot {
			t.Fatalf("SlotGroups(%d) = [%d,%d)", slot, gLo, gHi)
		}
	}
}

func TestSlotAllocator(t *testing.T) {
	a := NewSlotAllocator(0)
	if a.Next() != 0 || a.Next() != 1 {
		t.Fatal("sequential allocation broken")
	}
	if base := a.Reserve(3); base != 2 {
		t.Fatalf("Reserve(3) = %d, want 2", base)
	}
	if a.Reserve(0) != 5 || a.Next() != 6 {
		t.Fatal("Reserve(<1) must consume one slot")
	}
}

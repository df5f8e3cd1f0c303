package topo

import "testing"

// TestPlatformChangeNotification pins the cache-invalidation contract of
// the registry: a successful RegisterPlatform calls every OnPlatformChange
// hook with the new profile's name, outside the
// registry lock (the hook below reads the registry to prove it).
func TestPlatformChangeNotification(t *testing.T) {
	var got []string
	OnPlatformChange(func(name string) {
		// Reading the registry from inside a hook must not deadlock.
		if _, err := PlatformByName(name); err != nil {
			t.Errorf("hook could not resolve just-registered %q: %v", name, err)
		}
		got = append(got, name)
	})
	RegisterPlatform(Platform{
		Name: "hook-probe",
		Desc: "registered by TestPlatformChangeNotification",
		Spec: Table1Spec(),
	})
	if len(got) != 1 || got[0] != "hook-probe" {
		t.Errorf("hook calls = %v, want [hook-probe]", got)
	}

	// A failed registration (duplicate) must notify nothing.
	func() {
		defer func() { recover() }()
		RegisterPlatform(Platform{Name: "hook-probe", Spec: Table1Spec()})
	}()
	if len(got) != 1 {
		t.Errorf("failed registration ran hooks: %v", got)
	}
}

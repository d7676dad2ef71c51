// Fixture registry: Site* constants plus the Inject and InjectContext
// entry points, with one deliberate duplicate value.
package fault

import "context"

// Registered injection sites.
const (
	SiteParse  = "parse"
	SiteRender = "render"
	SiteSave   = "store.save"
	SiteDupe   = "parse" // want `duplicate fault site "parse": already declared as SiteParse`
)

// unrelated is not a site constant and must not join the registry.
const unrelated = "not-a-site"

// Inject fires any configured fault at site.
func Inject(site string) error {
	_ = site
	return nil
}

// InjectContext is Inject carrying an operation's context.
func InjectContext(ctx context.Context, site string) error {
	_ = ctx
	return Inject(site)
}

// Fixture consumer of the fault registry: constant, literal, unregistered
// and runtime-built Inject and InjectContext sites.
package pipeline

import (
	"context"

	"example.com/internal/fault"
)

// viaConstant is the canonical call shape.
func viaConstant() error {
	return fault.Inject(fault.SiteParse)
}

// viaLiteral is allowed: the literal matches a registered value.
func viaLiteral() error {
	return fault.Inject("store.save")
}

// unregistered names a site no sweep will ever reach.
func unregistered() error {
	return fault.Inject("renderx") // want `^fault\.Inject site "renderx" is not registered in example\.com/internal/fault \(known sites: parse, render, store\.save\)$`
}

// runtimeSite cannot be validated or enumerated at all.
func runtimeSite(site string) error {
	return fault.Inject(site) // want `fault\.Inject site must be a compile-time constant`
}

// withContext is the context-carrying call shape; its site is checked the
// same way.
func withContext(ctx context.Context) error {
	return fault.InjectContext(ctx, fault.SiteRender)
}

// runtimeSiteWithContext is runtimeSite through the context entry point.
func runtimeSiteWithContext(ctx context.Context, site string) error {
	return fault.InjectContext(ctx, site) // want `fault\.InjectContext site must be a compile-time constant`
}

"""Recovery of Hardy-space functions on the upper half plane from
boundary data on a bounded real interval, with residue-based growth
analysis of the approximants outside that interval, in plain Python:
no module imports numpy.  ``import patil`` loads no module of the
package; import each name from its module, as patil.quench.Interval."""

__version__ = "0.1.0"

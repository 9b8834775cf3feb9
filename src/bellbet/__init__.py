"""bellbet: referee, simulator and guaranteed error bounds for wagered
sequential CHSH (Bell-test) protocols.

The package runs local hidden-variable strategies and a quantum oracle
through a referee that enforces the protocol's information-flow rules,
maintains the coincidence statistic and its supermartingale trace, applies
Lenglart/Chebyshev and martingale Bernstein tail bounds, designs sample
sizes and critical values, and adjudicates with guaranteed error
probabilities, in process or across OS processes over a framed wire
protocol.
"""

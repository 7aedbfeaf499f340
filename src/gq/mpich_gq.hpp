// Umbrella header for MPICH-GQ: pulls in the full public API.
//
// Typical wiring (apps::GarnetRig assembles exactly this):
//
//   sim::Simulator sim;
//   net::GarnetTopology garnet(sim);                  // the testbed
//   gara::NetworkResourceManager net_rm(...);         // DS enforcement
//   gara::Gara gara(sim);
//   gara.registerManager("net-forward", net_rm);
//   mpi::World world(sim, {...hosts...});
//   gq::QosAgent agent(world, gara, {...});
//   ...
//   QosAttribute qos{QosClass::kPremium, 5000.0, 40'000};
//   comm.attrPut(agent.keyval(), &qos);               // triggers request
//   co_await agent.awaitSettled(comm);
//   assert(agent.status(comm).state == QosRequestState::kGranted);
#pragma once

#include "gara/gara.hpp"
#include "gq/qos_agent.hpp"
#include "gq/qos_attribute.hpp"
#include "gq/shaper.hpp"
#include "mpi/world.hpp"
#include "net/network.hpp"
#include "tcp/tcp_socket.hpp"
